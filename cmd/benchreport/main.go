// Command benchreport regenerates the paper's tables and figures on the
// synthetic reproduction pipelines.
//
// Usage:
//
//	benchreport [-scale tiny|small|full] [-seed N] [-workers N] [-epochs N]
//	            [-table 1|2|3|4] [-fig 7|8|9] [-ablations] [-all]
//	            [-bench nmnist,ibm-gesture,shd] [-v|-quiet] [-out report.txt]
//	            [-obs] [-manifest BENCH_manifest.json] [-trace out.jsonl]
//	            [-serve :9090] [-profile-dir DIR]
//	            [-profile cpu.pprof] [-profile-out BENCH_profile.json]
//	            [-profile-min-labeled F] [-profile-kernel-min F]
//
// -profile analyzes a pprof CPU profile captured with phase labelling
// on (any -profile-dir run, or /debug/pprof/profile): the samples are
// folded by their `phase` label into a per-phase flat/cum
// CPU table, written both to stdout and to the -profile-out JSON
// artifact. The optional gates fail the run when too few samples carry
// a phase label (-profile-min-labeled) or when the fused-kernel phases
// hold too little of the generate subtree's CPU (-profile-kernel-min) —
// verify.sh runs both so attribution regressions surface in CI.
//
// With no artifact flags, -all is implied. Tables I–III run on every
// selected benchmark; Table IV and the figures follow the paper's choices
// (Table IV on NMNIST, Figs. 7–9 on the IBM model).
//
// -obs enables the observability counters for the run and writes a run
// manifest (git revision, configuration, counter totals), so report
// numbers stay attributable to the exact run that produced them.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"github.com/repro/snntest/internal/core"
	"github.com/repro/snntest/internal/experiments"
	"github.com/repro/snntest/internal/obs"
	_ "github.com/repro/snntest/internal/obs/telemetry" // -serve support
	"github.com/repro/snntest/internal/snn"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("benchreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var ocli obs.CLI
	ocli.Register(fs)
	var (
		scaleFlag   = fs.String("scale", "tiny", "model scale: tiny, small or full")
		seed        = fs.Int64("seed", 1, "random seed for every stochastic component")
		workers     = fs.Int("workers", 0, "fault-campaign workers (0 = GOMAXPROCS)")
		epochs      = fs.Int("epochs", 0, "training epochs (0 = scale default)")
		table       = fs.Int("table", 0, "render one table (1-4)")
		fig         = fs.Int("fig", 0, "render one figure (7-9)")
		ablations   = fs.Bool("ablations", false, "run the ablation study")
		all         = fs.Bool("all", false, "render every table, figure and ablation")
		benchList   = fs.String("bench", strings.Join(experiments.Benchmarks, ","), "comma-separated benchmarks")
		outPath     = fs.String("out", "", "write the report to this file (default: stdout)")
		obsMode     = fs.Bool("obs", false, "collect run counters and write a run manifest")
		manifest    = fs.String("manifest", "BENCH_manifest.json", "manifest path for -obs")
		profile     = fs.String("profile", "", "analyze a pprof CPU profile: fold samples by phase label, render the per-phase table and write the -profile-out artifact")
		profOut     = fs.String("profile-out", "BENCH_profile.json", "phase-attribution artifact path for -profile")
		profLabMin  = fs.Float64("profile-min-labeled", 0, "fail unless at least this fraction of samples carries a phase label (0 = no gate)")
		profKernMin = fs.Float64("profile-kernel-min", 0, "fail unless the kernel phases hold at least this fraction of the generate subtree's CPU (0 = no gate)")
		profMinSamp = fs.Int("profile-min-samples", 50, "skip the -profile gates (with a note) below this sample count")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *profile != "" {
		// Pure file analysis: no pipelines, no obs setup, deterministic
		// per profile.
		return runProfile(stdout, *profile, *profOut, *profLabMin, *profKernMin, *profMinSamp)
	}
	ocli.ForceEnable = ocli.ForceEnable || *obsMode
	log, stop, err := ocli.Start(stderr)
	if err != nil {
		return err
	}
	defer func() {
		if serr := stop(); err == nil {
			err = serr
		}
	}()

	scale, err := parseScale(*scaleFlag)
	if err != nil {
		return err
	}
	if *table == 0 && *fig == 0 && !*ablations {
		*all = true
	}

	opts := experiments.ScaledOptions(scale, *seed)
	opts.Workers = *workers
	if *epochs > 0 {
		opts.TrainEpochs = *epochs
	}
	opts.Log = log.Writer(obs.LevelDebug)

	var pipes []*experiments.Pipeline
	for _, name := range strings.Split(*benchList, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		p, err := experiments.NewPipeline(name, opts)
		if err != nil {
			return err
		}
		log.Infof("%s: built and trained (%v, accuracy %.1f%%)",
			name, p.TrainTime.Round(1e6), 100*p.Accuracy)
		pipes = append(pipes, p)
	}
	if len(pipes) == 0 {
		return fmt.Errorf("no benchmarks selected")
	}
	out := stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		out = f
	}

	if *all || *table == 1 {
		rows := make([]experiments.Table1Row, len(pipes))
		for i, p := range pipes {
			rows[i] = experiments.Table1(p)
		}
		if err := experiments.RenderTable1(out, rows); err != nil {
			return err
		}
	}
	if *all || *table == 2 {
		rows := make([]experiments.Table2Row, len(pipes))
		for i, p := range pipes {
			rows[i], err = experiments.Table2(p)
			if err != nil {
				return err
			}
		}
		if err := experiments.RenderTable2(out, rows); err != nil {
			return err
		}
	}
	if *all || *table == 3 {
		rows := make([]experiments.Table3Row, len(pipes))
		for i, p := range pipes {
			rows[i], err = experiments.Table3(p)
			if err != nil {
				return err
			}
		}
		if err := experiments.RenderTable3(out, rows); err != nil {
			return err
		}
	}
	if *all || *table == 4 {
		rows, err := experiments.Table4(pickPipe(pipes, "nmnist"))
		if err != nil {
			return err
		}
		if err := experiments.RenderTable4(out, rows); err != nil {
			return err
		}
	}
	if *all || *fig == 7 {
		if err := experiments.Fig7(out, pickPipe(pipes, "ibm-gesture"), 4); err != nil {
			return err
		}
	}
	if *all || *fig == 8 {
		p := pickPipe(pipes, "ibm-gesture")
		d, err := experiments.Fig8(p)
		if err != nil {
			return err
		}
		if err := experiments.RenderFig8(out, p, d); err != nil {
			return err
		}
	}
	if *all || *fig == 9 {
		p := pickPipe(pipes, "ibm-gesture")
		d, err := experiments.Fig9(p)
		if err != nil {
			return err
		}
		if err := experiments.RenderFig9(out, p, d, 10); err != nil {
			return err
		}
	}
	if *all || *ablations {
		if err := runAblations(out, pickPipe(pipes, "shd")); err != nil {
			return err
		}
	}
	if *obsMode {
		m := obs.NewManifest(map[string]string{
			"tool":       "benchreport",
			"scale":      *scaleFlag,
			"seed":       strconv.FormatInt(*seed, 10),
			"workers":    strconv.Itoa(*workers),
			"benchmarks": *benchList,
		})
		if err := obs.WriteManifest(*manifest, m); err != nil {
			return err
		}
		log.Infof("run manifest written to %s", *manifest)
	}
	return nil
}

// pickPipe returns the pipeline for the preferred benchmark, falling back
// to the first one built.
func pickPipe(pipes []*experiments.Pipeline, prefer string) *experiments.Pipeline {
	for _, p := range pipes {
		if p.Benchmark == prefer {
			return p
		}
	}
	return pipes[0]
}

// runAblations executes the DESIGN.md §5 ablation suite.
func runAblations(w io.Writer, p *experiments.Pipeline) error {
	variants := []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"no-stage2", func(c *core.Config) { c.DisableStage2 = true }},
		{"no-L3", func(c *core.Config) { c.DisableL3 = true }},
		{"no-L4", func(c *core.Config) { c.DisableL4 = true }},
		{"plain-sigmoid", func(c *core.Config) { c.PlainSigmoid = true }},
	}
	rows := make([]experiments.AblationResult, 0, len(variants))
	for _, v := range variants {
		row, err := experiments.Ablate(p, v.name, v.mutate)
		if err != nil {
			return err
		}
		rows = append(rows, row)
	}
	return experiments.RenderAblations(w, rows)
}

func parseScale(s string) (snn.ModelScale, error) {
	switch s {
	case "tiny":
		return snn.ScaleTiny, nil
	case "small":
		return snn.ScaleSmall, nil
	case "full":
		return snn.ScaleFull, nil
	default:
		return 0, fmt.Errorf("unknown scale %q (want tiny, small or full)", s)
	}
}
