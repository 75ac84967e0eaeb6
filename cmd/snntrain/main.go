// Command snntrain trains one benchmark SNN on its synthetic dataset
// with surrogate-gradient BPTT, through the same experiment pipeline as
// benchreport, and optionally saves the weights for
// `snntestgen -weights` / `faultsim -weights`.
//
// Usage:
//
//	snntrain -bench nmnist [-scale tiny|small|full] [-epochs N]
//	         [-seed N] [-out weights.gob]
//	         [-v|-quiet] [-trace out.jsonl] [-serve :9090]
//	         [-profile-dir dir]
//
// The dataset size, the epoch count (when -epochs is 0) and the learning
// rate (scaled with the sample length) come from
// experiments.ScaledOptions, so the saved weights are exactly the ones
// snntestgen, faultsim and benchreport train in-process at the same
// scale and seed.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/repro/snntest/internal/experiments"
	"github.com/repro/snntest/internal/obs"
	"github.com/repro/snntest/internal/obs/telemetry"
	"github.com/repro/snntest/internal/snn"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "snntrain:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("snntrain", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var ocli telemetry.CLI
	ocli.Register(fs)
	var (
		bench     = fs.String("bench", "nmnist", "benchmark: nmnist, ibm-gesture or shd")
		scaleFlag = fs.String("scale", "tiny", "model scale: tiny, small or full")
		epochs    = fs.Int("epochs", 0, "training epochs (0 = scale default)")
		seed      = fs.Int64("seed", 1, "random seed")
		out       = fs.String("out", "", "write trained weights to this file (gob)")
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
	_, root := obs.Start(context.Background(), "snntrain")
	defer root.End()

	scale, err := snn.ParseScale(*scaleFlag)
	if err != nil {
		return err
	}
	opts := experiments.ScaledOptions(scale, *seed)
	opts.Log = log.Writer(obs.LevelInfo)
	if *epochs > 0 {
		opts.TrainEpochs = *epochs
	}
	log.Infof("training %s for %d epochs…", *bench, opts.TrainEpochs)
	p, err := experiments.NewPipeline(*bench, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s (%s): %d neurons, %d synapses\n", p.Net.Name, scale, p.Net.NumNeurons(), p.Net.NumSynapses())
	fmt.Fprintf(stdout, "test accuracy: %.2f%%\n", 100*p.Accuracy)

	if *out != "" {
		if err := p.Net.SaveWeightsFile(*out); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "weights written to %s\n", *out)
	}
	return nil
}
