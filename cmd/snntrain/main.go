// Command snntrain trains one benchmark SNN on its synthetic dataset
// with surrogate-gradient BPTT and optionally saves the weights.
//
// Usage:
//
//	snntrain -bench nmnist [-scale tiny|small|full] [-epochs N] [-lr F]
//	         [-seed N] [-out weights.gob]
//	         [-v|-quiet] [-trace out.jsonl] [-serve :9090]
//	         [-profile-dir dir]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"github.com/repro/snntest/internal/dataset"
	"github.com/repro/snntest/internal/obs"
	_ "github.com/repro/snntest/internal/obs/telemetry" // -serve support
	"github.com/repro/snntest/internal/snn"
	"github.com/repro/snntest/internal/train"
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
	var ocli obs.CLI
	ocli.Register(fs)
	var (
		bench     = fs.String("bench", "nmnist", "benchmark: nmnist, ibm-gesture or shd")
		scaleFlag = fs.String("scale", "tiny", "model scale: tiny, small or full")
		epochs    = fs.Int("epochs", 5, "training epochs")
		lr        = fs.Float64("lr", 0.01, "Adam learning rate")
		perClass  = fs.Int("per-class", 6, "training samples per class")
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

	scale, err := parseScale(*scaleFlag)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	net, err := snn.Build(*bench, rng, scale)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s (%s): %d neurons, %d synapses\n", net.Name, *scaleFlag, net.NumNeurons(), net.NumSynapses())

	sampleSteps, err := snn.SampleSteps(*bench, scale)
	if err != nil {
		return err
	}
	ds, err := dataset.ForBenchmark(net, dataset.Config{
		TrainPerClass: *perClass,
		TestPerClass:  max(1, *perClass/2),
		Steps:         sampleSteps,
		Seed:          *seed + 1,
	})
	if err != nil {
		return err
	}
	trainIn, trainLab := ds.Inputs("train")
	testIn, testLab := ds.Inputs("test")

	log.Infof("training %s for %d epochs…", net.Name, *epochs)
	_, err = train.Train(net, trainIn, trainLab, train.Config{
		Epochs: *epochs, LR: *lr, Seed: *seed + 2, Log: log.Writer(obs.LevelInfo),
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "test accuracy: %.2f%%\n", 100*train.Evaluate(net, testIn, testLab))

	if *out != "" {
		if err := net.SaveWeightsFile(*out); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "weights written to %s\n", *out)
	}
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

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
