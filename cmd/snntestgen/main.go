// Command snntestgen is the end-to-end tool of the reproduction: it
// builds and trains a benchmark SNN (or loads trained weights) through
// the same experiment pipeline as benchreport, runs the paper's
// test-generation algorithm, verifies the resulting stimulus with a
// single fault-simulation campaign, and prints the benchmark's Table III
// row — the same row `benchreport -table 3` prints at the same scale,
// seed and budgets.
//
// Usage:
//
//	snntestgen -bench nmnist [-scale tiny|small|full] [-seed N]
//	           [-weights file.gob] [-epochs N] [-steps1 N] [-max-iter N]
//	           [-restarts K] [-tinmin N] [-stride N] [-workers N]
//	           [-save-stimulus file.gob]
//	           [-v|-quiet] [-trace out.jsonl] [-serve :9090]
//	           [-ledger dir] [-profile-dir dir]
//
// Every budget flag (-epochs, -steps1, -max-iter, -restarts, -stride)
// defaults to 0, meaning the scale's value from
// experiments.ScaledOptions; a flag overrides that value only when set.
// -weights loads weights saved by `snntrain -out` instead of training.
//
// -restarts K sets the generation engine's restart count: every
// iteration optimizes K independently seeded candidate chunks on a worker
// pool (-workers bounds it) and keeps the best. Results depend only on
// -seed, never on the worker count.
//
// -trace records the run's observability stream (span tree + counters) as
// JSON lines and prints an end-of-run summary; -serve exposes the run's
// progress live over HTTP (/runs); -v / -quiet tune the stderr
// narration. -profile-dir writes phase-labelled
// snntestgen.{cpu,heap}.pprof profiles (read the per-phase CPU table
// with `go tool pprof -tags -sample_index=samples`).
// SIGINT/SIGTERM cancel generation gracefully — the partial stimulus is
// still verified and the trace flushed.
package main

import (
	"context"
	"encoding/gob"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/repro/snntest/internal/experiments"
	"github.com/repro/snntest/internal/metrics"
	"github.com/repro/snntest/internal/obs"
	"github.com/repro/snntest/internal/obs/telemetry"
	"github.com/repro/snntest/internal/snn"
	"github.com/repro/snntest/internal/tensor"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "snntestgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("snntestgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var ocli telemetry.CLI
	ocli.Register(fs)
	var (
		bench     = fs.String("bench", "nmnist", "benchmark: nmnist, ibm-gesture or shd")
		scaleFlag = fs.String("scale", "tiny", "model scale: tiny, small or full")
		seed      = fs.Int64("seed", 1, "random seed")
		weights   = fs.String("weights", "", "load trained weights instead of training in-process")
		epochs    = fs.Int("epochs", 0, "in-process training epochs when -weights is absent (0 = scale default)")
		steps1    = fs.Int("steps1", 0, "stage-1 optimization steps (0 = scale default)")
		maxIter   = fs.Int("max-iter", 0, "maximum generated chunks (0 = scale default)")
		restarts  = fs.Int("restarts", 0, "independently seeded optimizer restarts per chunk; the best one wins (0 = scale default)")
		tinMin    = fs.Int("tinmin", 0, "pin the chunk duration T_in,min and skip calibration (0 = calibrate)")
		stride    = fs.Int("stride", 0, "fault universe stride for verification (0 = scale default)")
		workers   = fs.Int("workers", 0, "campaign and restart workers (0 = GOMAXPROCS)")
		save      = fs.String("save-stimulus", "", "write the stimulus tensor to this file (gob)")
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
	ctx, root := obs.Start(sctx, "snntestgen")
	defer root.End()

	scale, err := snn.ParseScale(*scaleFlag)
	if err != nil {
		return err
	}
	opts := experiments.ScaledOptions(scale, *seed)
	opts.Weights = *weights
	opts.Workers = *workers
	opts.Log = log.Writer(obs.LevelDebug)
	if *epochs > 0 {
		opts.TrainEpochs = *epochs
	}
	if *stride > 0 {
		opts.FaultStride = *stride
	}
	if *steps1 > 0 {
		opts.GenConfig.Steps1 = *steps1
	}
	if *maxIter > 0 {
		opts.GenConfig.MaxIterations = *maxIter
	}
	if *tinMin > 0 {
		opts.GenConfig.TInMin = *tinMin
	}
	if *restarts > 0 {
		opts.GenConfig.Parallel.Restarts = *restarts
	}

	log.Infof("building the %s model…", *bench)
	p, err := experiments.NewPipeline(*bench, opts)
	if err != nil {
		return err
	}
	log.Infof("generating test stimulus…")
	res, err := p.Generate(ctx)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "T_in,min: %d steps; chunks: %d; test duration: %d steps\n",
		res.TInMin, len(res.Chunks), res.TotalSteps())
	summary := metrics.SummarizeGeneration(res.Trace)
	fmt.Fprintf(stdout, "generation: %d iterations, %d growths, %.1f new neurons/iteration\n",
		summary.Iterations, summary.TotalGrowths, summary.MeanNewActivated)
	if k := opts.GenConfig.Parallel.Restarts; k > 1 {
		fmt.Fprintf(stdout, "restarts evaluated: %d; wins by restart index:", summary.RestartsRun)
		for r := 0; r < k; r++ {
			fmt.Fprintf(stdout, " %d:%d", r, summary.WinnersByRestart[r])
		}
		fmt.Fprintln(stdout)
	}

	log.Infof("verifying against %d faults…", len(p.Faults()))
	row, err := experiments.Table3(ctx, p)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout)
	if err := experiments.RenderTable3(stdout, []experiments.Table3Row{row}); err != nil {
		return err
	}

	if *save != "" {
		if err := saveStimulus(*save, res.Stimulus); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "stimulus written to %s\n", *save)
	}
	return nil
}

// stimulusFile is the on-disk representation of a test stimulus.
type stimulusFile struct {
	Shape []int
	Data  []float64
}

func saveStimulus(path string, t *tensor.Tensor) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := gob.NewEncoder(f).Encode(stimulusFile{Shape: t.Shape(), Data: t.Data()}); err != nil {
		return err
	}
	return f.Close()
}
