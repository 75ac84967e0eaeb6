// Command benchreport regenerates the paper's tables and figures on the
// synthetic reproduction pipelines.
//
// Usage:
//
//	benchreport [-scale tiny|small|full] [-seed N] [-workers N] [-epochs N]
//	            [-table 1|2|3|4] [-fig 7|8|9] [-ablations] [-all]
//	            [-bench nmnist,ibm-gesture,shd] [-v|-quiet] [-out report.txt]
//	            [-trace out.jsonl] [-serve :9090] [-profile-dir DIR]
//
// -profile-dir captures phase-labelled CPU and heap profiles; read the
// per-phase CPU table with `go tool pprof -tags -sample_index=samples
// DIR/benchreport.cpu.pprof`.
//
// With no artifact flags, -all is implied. Tables I–III run on every
// selected benchmark; Table IV and the figures follow the paper's choices
// (Table IV on NMNIST, Figs. 7–9 on the IBM model).
//
// The pipelines start from experiments.ScaledOptions; -epochs overrides
// the scale's training epochs only when set. SIGINT/SIGTERM cancel
// generation gracefully — the remaining artifacts render from the partial
// stimulus and the trace is flushed.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/repro/snntest/internal/core"
	"github.com/repro/snntest/internal/experiments"
	"github.com/repro/snntest/internal/obs"
	"github.com/repro/snntest/internal/obs/telemetry"
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
	var ocli telemetry.CLI
	ocli.Register(fs)
	var (
		scaleFlag = fs.String("scale", "tiny", "model scale: tiny, small or full")
		seed      = fs.Int64("seed", 1, "random seed for every stochastic component")
		workers   = fs.Int("workers", 0, "fault-campaign workers (0 = GOMAXPROCS)")
		epochs    = fs.Int("epochs", 0, "training epochs (0 = scale default)")
		table     = fs.Int("table", 0, "render one table (1-4)")
		fig       = fs.Int("fig", 0, "render one figure (7-9)")
		ablations = fs.Bool("ablations", false, "run the ablation study")
		all       = fs.Bool("all", false, "render every table, figure and ablation")
		benchList = fs.String("bench", strings.Join(experiments.Benchmarks, ","), "comma-separated benchmarks")
		outPath   = fs.String("out", "", "write the report to this file (default: stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	log, stop, err := ocli.Start(stderr)
	if err != nil {
		return err
	}
	defer func() {
		if serr := stop(); err == nil {
			err = serr
		}
	}()

	sctx, cancel := obs.SignalContext(context.Background())
	defer cancel()
	ctx, root := obs.Start(sctx, "benchreport")
	defer root.End()

	scale, err := snn.ParseScale(*scaleFlag)
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
			rows[i], err = experiments.Table2(ctx, p)
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
			rows[i], err = experiments.Table3(ctx, p)
			if err != nil {
				return err
			}
		}
		if err := experiments.RenderTable3(out, rows); err != nil {
			return err
		}
	}
	if *all || *table == 4 {
		rows, err := experiments.Table4(ctx, pickPipe(pipes, "nmnist"))
		if err != nil {
			return err
		}
		if err := experiments.RenderTable4(out, rows); err != nil {
			return err
		}
	}
	if *all || *fig == 7 {
		if err := experiments.Fig7(ctx, out, pickPipe(pipes, "ibm-gesture"), 4); err != nil {
			return err
		}
	}
	if *all || *fig == 8 {
		p := pickPipe(pipes, "ibm-gesture")
		d, err := experiments.Fig8(ctx, p)
		if err != nil {
			return err
		}
		if err := experiments.RenderFig8(out, p, d); err != nil {
			return err
		}
	}
	if *all || *fig == 9 {
		p := pickPipe(pipes, "ibm-gesture")
		d, err := experiments.Fig9(ctx, p)
		if err != nil {
			return err
		}
		if err := experiments.RenderFig9(out, p, d, 10); err != nil {
			return err
		}
	}
	if *all || *ablations {
		if err := runAblations(ctx, out, pickPipe(pipes, "shd")); err != nil {
			return err
		}
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
func runAblations(ctx context.Context, w io.Writer, p *experiments.Pipeline) error {
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
		row, err := experiments.Ablate(ctx, p, v.name, v.mutate)
		if err != nil {
			return err
		}
		rows = append(rows, row)
	}
	return experiments.RenderAblations(w, rows)
}
