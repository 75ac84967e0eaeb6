// Command faultsim runs a standalone fault-simulation campaign on one
// benchmark model: it enumerates the fault universe, labels each fault
// critical or benign against the test split (the Table II campaign), and
// reports the per-class counts and wall-clock cost.
//
// Usage:
//
//	faultsim -bench shd [-scale tiny|small|full] [-stride N]
//	         [-weights file.gob] [-extended] [-workers N] [-seed N] [-full]
//	         [-v|-quiet] [-trace out.jsonl] [-serve :9090]
//	         [-ledger dir] [-stall-timeout D]
//	         [-profile-dir dir]
//
// By default the campaign is incremental: each faulty simulation replays
// the golden spike trace up to the fault's layer and re-simulates only
// the layers above it. -full forces the reference full re-simulation of
// every fault (same results, more simulated layer-steps).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"time"

	"github.com/repro/snntest/internal/dataset"
	"github.com/repro/snntest/internal/fault"
	"github.com/repro/snntest/internal/obs"
	_ "github.com/repro/snntest/internal/obs/telemetry" // -serve support
	"github.com/repro/snntest/internal/snn"
	"github.com/repro/snntest/internal/train"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "faultsim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("faultsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var ocli obs.CLI
	ocli.Register(fs)
	var (
		bench     = fs.String("bench", "shd", "benchmark: nmnist, ibm-gesture or shd")
		scaleFlag = fs.String("scale", "tiny", "model scale: tiny, small or full")
		stride    = fs.Int("stride", 1, "fault universe subsampling stride (1 = exhaustive)")
		weights   = fs.String("weights", "", "load trained weights instead of training in-process")
		extended  = fs.Bool("extended", false, "include timing-variation and bit-flip faults")
		workers   = fs.Int("workers", 0, "campaign workers (0 = GOMAXPROCS)")
		epochs    = fs.Int("epochs", 4, "in-process training epochs when -weights is absent")
		seed      = fs.Int64("seed", 1, "random seed")
		full      = fs.Bool("full", false, "disable incremental golden-trace replay (full re-simulation per fault)")
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
	ctx, root := obs.Start(sctx, "faultsim")
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
		TrainPerClass: 4, TestPerClass: 2,
		Steps: sampleSteps, Seed: *seed + 1,
	})
	if err != nil {
		return err
	}
	if *weights != "" {
		if err := net.LoadWeightsFile(*weights); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "loaded weights from %s\n", *weights)
	} else {
		trainIn, trainLab := ds.Inputs("train")
		log.Infof("training model…")
		if _, err := train.Train(net, trainIn, trainLab, train.Config{
			Epochs: *epochs, LR: 0.03, Seed: *seed + 2,
		}); err != nil {
			return err
		}
	}

	opts := fault.DefaultOptions()
	if *extended {
		opts = fault.ExtendedOptions()
	}
	faults := fault.SampleUniverse(net, opts, *stride)
	fmt.Fprintf(stdout, "%s (%s): %d neurons, %d synapses; universe %d faults (stride %d → %d simulated)\n",
		net.Name, *scaleFlag, net.NumNeurons(), net.NumSynapses(),
		fault.UniverseSize(net, opts), *stride, len(faults))

	testIn, _ := ds.Inputs("test")
	start := time.Now()
	var progress func(done int)
	if log.Enabled(obs.LevelInfo) {
		var progressMu sync.Mutex
		progress = func(done int) {
			progressMu.Lock()
			fmt.Fprintf(stderr, "\rclassified %d/%d", done, len(faults))
			progressMu.Unlock()
		}
	}
	res, err := fault.ClassifyWith(net, faults, testIn, fault.CampaignOptions{
		Workers:   *workers,
		FullResim: *full,
		Progress:  progress,
		Context:   ctx,
	})
	if progress != nil {
		fmt.Fprintln(stderr)
	}
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	critical := res.Critical

	var cn, bn, cs, bs int
	for i, f := range faults {
		switch {
		case f.Kind.IsNeuron() && critical[i]:
			cn++
		case f.Kind.IsNeuron():
			bn++
		case critical[i]:
			cs++
		default:
			bs++
		}
	}
	fmt.Fprintf(stdout, "\nFault simulation results (%d samples, %d steps each):\n", len(testIn), ds.SampleSteps)
	fmt.Fprintf(stdout, "  critical neuron faults:  %d\n", cn)
	fmt.Fprintf(stdout, "  benign neuron faults:    %d\n", bn)
	fmt.Fprintf(stdout, "  critical synapse faults: %d\n", cs)
	fmt.Fprintf(stdout, "  benign synapse faults:   %d\n", bs)
	fmt.Fprintf(stdout, "  campaign time:           %v (%.2f ms/fault)\n",
		elapsed.Round(time.Millisecond), float64(elapsed.Milliseconds())/float64(len(faults)))
	fmt.Fprintf(stdout, "  simulated layer-steps:   %d of %d full (%.2fx saved)\n",
		res.LayerSteps, res.FullLayerSteps, float64(res.FullLayerSteps)/float64(res.LayerSteps))
	return nil
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
