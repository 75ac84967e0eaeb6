// Command snntestgen is the end-to-end tool of the reproduction: it
// builds and trains a benchmark SNN (or loads trained weights), runs the
// paper's test-generation algorithm, and verifies the resulting stimulus
// with a single fault-simulation campaign, printing the Table III
// efficiency metrics.
//
// Usage:
//
//	snntestgen -bench nmnist [-scale tiny|small|full] [-seed N]
//	           [-weights file.gob] [-epochs N] [-steps1 N] [-max-iter N]
//	           [-restarts K] [-tinmin N] [-stride N] [-workers N]
//	           [-save-stimulus file.gob]
//	           [-v|-quiet] [-trace out.jsonl] [-serve :9090]
//	           [-ledger dir] [-stall-timeout D]
//	           [-profile-dir dir]
//
// -restarts K sets the generation engine's restart count: every
// iteration optimizes K independently seeded candidate chunks on a worker
// pool (-workers bounds it) and keeps the best. Results depend only on
// -seed, never on the worker count.
//
// -trace records the run's observability stream (span tree + counters) as
// JSON lines and prints an end-of-run summary; -serve exposes the run
// live over HTTP (/metrics, /runs, /debug/pprof); -v / -quiet tune the
// stderr narration. -profile-dir writes phase-labelled
// snntestgen.{cpu,heap}.pprof profiles (analyze with
// `benchreport -profile`).
// -stall-timeout (with -serve and -ledger) dumps goroutine snapshots of
// flatlined runs into the ledger directory.
// SIGINT/SIGTERM cancel generation gracefully — the partial stimulus is
// still verified and the trace flushed.
package main

import (
	"context"
	"encoding/gob"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"github.com/repro/snntest/internal/core"
	"github.com/repro/snntest/internal/dataset"
	"github.com/repro/snntest/internal/fault"
	"github.com/repro/snntest/internal/metrics"
	"github.com/repro/snntest/internal/obs"
	_ "github.com/repro/snntest/internal/obs/telemetry" // -serve support
	"github.com/repro/snntest/internal/snn"
	"github.com/repro/snntest/internal/tensor"
	"github.com/repro/snntest/internal/train"
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
	var ocli obs.CLI
	ocli.Register(fs)
	var (
		bench     = fs.String("bench", "nmnist", "benchmark: nmnist, ibm-gesture or shd")
		scaleFlag = fs.String("scale", "tiny", "model scale: tiny, small or full")
		seed      = fs.Int64("seed", 1, "random seed")
		weights   = fs.String("weights", "", "load trained weights instead of training in-process")
		epochs    = fs.Int("epochs", 4, "in-process training epochs when -weights is absent")
		steps1    = fs.Int("steps1", 0, "stage-1 optimization steps (0 = scale default)")
		maxIter   = fs.Int("max-iter", 0, "maximum generated chunks (0 = scale default)")
		restarts  = fs.Int("restarts", 1, "independently seeded optimizer restarts per chunk; the best one wins")
		tinMin    = fs.Int("tinmin", 0, "pin the chunk duration T_in,min and skip calibration (0 = calibrate)")
		stride    = fs.Int("stride", 1, "fault universe stride for verification")
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

	scale, err := parseScale(*scaleFlag)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	net, err := snn.Build(*bench, rng, scale)
	if err != nil {
		return err
	}

	sampleSteps, err := snn.SampleSteps(*bench, scale)
	if err != nil {
		return err
	}
	ds, err := dataset.ForBenchmark(net, dataset.Config{
		TrainPerClass: 4, TestPerClass: 2, Steps: sampleSteps, Seed: *seed + 1,
	})
	if err != nil {
		return err
	}
	if *weights != "" {
		if err := net.LoadWeightsFile(*weights); err != nil {
			return err
		}
	} else {
		trainIn, trainLab := ds.Inputs("train")
		log.Infof("training model…")
		if _, err := train.Train(net, trainIn, trainLab, train.Config{
			Epochs: *epochs, LR: 0.03, Seed: *seed + 2,
		}); err != nil {
			return err
		}
	}

	cfg := core.DefaultConfig()
	if scale != snn.ScaleFull {
		cfg = core.TestConfig()
		cfg.Steps1 = 100
	}
	cfg.Seed = *seed + 3
	cfg.Log = log.Writer(obs.LevelDebug)
	if *steps1 > 0 {
		cfg.Steps1 = *steps1
	}
	if *maxIter > 0 {
		cfg.MaxIterations = *maxIter
	}
	if *tinMin > 0 {
		cfg.TInMin = *tinMin
	}
	cfg.Parallel = core.Parallel{Restarts: *restarts, Workers: *workers}

	log.Infof("generating test stimulus…")
	res, err := core.GenerateContext(ctx, net, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "test generation runtime: %v\n", res.Runtime.Round(time.Millisecond))
	fmt.Fprintf(stdout, "T_in,min: %d steps; chunks: %d\n", res.TInMin, len(res.Chunks))
	fmt.Fprintf(stdout, "test duration: %d steps = %.2f samples = %.3f s\n",
		res.TotalSteps(), res.DurationSamples(sampleSteps),
		metrics.DurationSeconds(net, res.TotalSteps()))
	fmt.Fprintf(stdout, "activated neurons: %.2f%%\n", 100*res.ActivatedFraction)
	summary := metrics.SummarizeGeneration(res.Trace)
	fmt.Fprintf(stdout, "generation: %d iterations, %d growths, %.1f new neurons/iteration\n",
		summary.Iterations, summary.TotalGrowths, summary.MeanNewActivated)
	if *restarts > 1 {
		fmt.Fprintf(stdout, "restarts evaluated: %d; wins by restart index:", summary.RestartsRun)
		for r := 0; r < *restarts; r++ {
			fmt.Fprintf(stdout, " %d:%d", r, summary.WinnersByRestart[r])
		}
		fmt.Fprintln(stdout)
	}

	faults := fault.SampleUniverse(net, fault.DefaultOptions(), *stride)
	log.Infof("verifying against %d faults…", len(faults))
	testIn, _ := ds.Inputs("test")
	cls, err := fault.ClassifyWith(net, faults, testIn, fault.CampaignOptions{
		Workers: *workers, Context: ctx,
	})
	if err != nil {
		return err
	}
	critical := cls.Critical
	sim, err := fault.SimulateWith(net, faults, res.Stimulus, fault.CampaignOptions{
		Workers: *workers, Context: ctx,
	})
	if err != nil {
		return err
	}
	cov, err := fault.Compute(faults, sim.Detected, critical)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "verification campaign: %v for %d faults\n", sim.Elapsed.Round(time.Millisecond), len(faults))
	fmt.Fprintf(stdout, "FC critical neuron faults:  %.2f%%\n", 100*cov.CriticalNeuron.FC())
	fmt.Fprintf(stdout, "FC critical synapse faults: %.2f%%\n", 100*cov.CriticalSynapse.FC())
	fmt.Fprintf(stdout, "FC benign neuron faults:    %.2f%%\n", 100*cov.BenignNeuron.FC())
	fmt.Fprintf(stdout, "FC benign synapse faults:   %.2f%%\n", 100*cov.BenignSynapse.FC())

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
