// NMNIST test generation: the paper's primary pipeline on the NMNIST-like
// benchmark — train the convolutional SNN of Fig. 4 on the synthetic
// saccade-digit dataset, generate the optimized test stimulus, verify its
// fault coverage against the classified fault universe, and render a
// stimulus snapshot (Fig. 7) plus the activation comparison (Fig. 8).
//
//	go run ./examples/nmnist_testgen [-scale tiny|small|full]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"github.com/repro/snntest/internal/experiments"
	"github.com/repro/snntest/internal/snn"
)

func main() {
	scaleFlag := flag.String("scale", "tiny", "model scale: tiny, small or full")
	flag.Parse()
	scale, err := snn.ParseScale(*scaleFlag)
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()

	opts := experiments.ScaledOptions(scale, 1)
	opts.Log = os.Stderr
	p, err := experiments.NewPipeline("nmnist", opts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("trained NMNIST model: %.1f%% test accuracy (%d neurons, %d synapses)\n\n",
		100*p.Accuracy, p.Net.NumNeurons(), p.Net.NumSynapses())

	// Table III metrics for this single benchmark.
	row, err := experiments.Table3(ctx, p)
	if err != nil {
		fatal(err)
	}
	if err := experiments.RenderTable3(os.Stdout, []experiments.Table3Row{row}); err != nil {
		fatal(err)
	}

	// Fig. 7: what the optimized stimulus looks like.
	if err := experiments.Fig7(ctx, os.Stdout, p, 3); err != nil {
		fatal(err)
	}

	// Fig. 8: optimized test vs. a dataset sample.
	d, err := experiments.Fig8(ctx, p)
	if err != nil {
		fatal(err)
	}
	if err := experiments.RenderFig8(os.Stdout, p, d); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nmnist_testgen:", err)
	os.Exit(1)
}
