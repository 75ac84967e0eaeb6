// Command faultsim runs a standalone fault-simulation campaign on one
// benchmark model: it builds the model through the same experiment
// pipeline as benchreport, enumerates the fault universe, labels each
// fault critical or benign against the test split (the Table II
// campaign), and reports the per-class counts and wall-clock cost.
//
// Usage:
//
//	faultsim -bench shd [-scale tiny|small|full] [-stride N]
//	         [-weights file.gob] [-extended] [-workers N] [-epochs N] [-seed N]
//	         [-v|-quiet] [-trace out.jsonl] [-serve :9090]
//	         [-ledger dir] [-profile-dir dir]
//
// -stride and -epochs default to 0, meaning the scale's value from
// experiments.ScaledOptions; -weights loads weights saved by
// `snntrain -out` instead of training. Without -extended the counts are
// `benchreport -table 2`'s. The campaign is incremental: each faulty
// simulation replays the golden spike trace up to the fault's layer and
// re-simulates only the layers above it; the report prints the simulated
// layer-steps against a full re-simulation's.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"github.com/repro/snntest/internal/experiments"
	"github.com/repro/snntest/internal/fault"
	"github.com/repro/snntest/internal/obs"
	"github.com/repro/snntest/internal/obs/telemetry"
	"github.com/repro/snntest/internal/snn"
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
	var ocli telemetry.CLI
	ocli.Register(fs)
	var (
		bench     = fs.String("bench", "shd", "benchmark: nmnist, ibm-gesture or shd")
		scaleFlag = fs.String("scale", "tiny", "model scale: tiny, small or full")
		stride    = fs.Int("stride", 0, "fault universe subsampling stride (0 = scale default, 1 = exhaustive)")
		weights   = fs.String("weights", "", "load trained weights instead of training in-process")
		extended  = fs.Bool("extended", false, "include timing-variation and bit-flip faults")
		workers   = fs.Int("workers", 0, "campaign workers (0 = GOMAXPROCS)")
		epochs    = fs.Int("epochs", 0, "in-process training epochs when -weights is absent (0 = scale default)")
		seed      = fs.Int64("seed", 1, "random seed")
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
	log.Infof("building the %s model…", *bench)
	p, err := experiments.NewPipeline(*bench, opts)
	if err != nil {
		return err
	}
	if *weights != "" {
		fmt.Fprintf(stdout, "loaded weights from %s\n", *weights)
	}
	net := p.Net

	fopts := fault.DefaultOptions()
	if *extended {
		fopts = fault.ExtendedOptions()
	}
	faults := fault.SampleUniverse(net, fopts, opts.FaultStride)
	fmt.Fprintf(stdout, "%s (%s): %d neurons, %d synapses; universe %d faults (stride %d → %d simulated)\n",
		net.Name, scale, net.NumNeurons(), net.NumSynapses(),
		fault.UniverseSize(net, fopts), opts.FaultStride, len(faults))

	testIn, _ := p.Data.Inputs("test")
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
		Workers:  *workers,
		Progress: progress,
		Context:  ctx,
	})
	if progress != nil {
		fmt.Fprintln(stderr)
	}
	if err != nil {
		return err
	}
	cov, err := fault.Compute(faults, make([]bool, len(faults)), res.Critical)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nFault simulation results (%d samples, %d steps each):\n", len(testIn), p.SampleStepsUsed())
	fmt.Fprintf(stdout, "  critical neuron faults:  %d\n", cov.CriticalNeuron.Total)
	fmt.Fprintf(stdout, "  benign neuron faults:    %d\n", cov.BenignNeuron.Total)
	fmt.Fprintf(stdout, "  critical synapse faults: %d\n", cov.CriticalSynapse.Total)
	fmt.Fprintf(stdout, "  benign synapse faults:   %d\n", cov.BenignSynapse.Total)
	fmt.Fprintf(stdout, "  campaign time:           %v (%.2f ms/fault)\n",
		res.Elapsed.Round(time.Millisecond), float64(res.Elapsed.Milliseconds())/float64(len(faults)))
	fmt.Fprintf(stdout, "  simulated layer-steps:   %d of %d full (%.2fx saved)\n",
		res.LayerSteps, res.FullLayerSteps, float64(res.FullLayerSteps)/float64(res.LayerSteps))
	return nil
}
