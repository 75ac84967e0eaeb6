// Baseline comparison: the paper's Table IV experiment — the proposed
// optimized test against the greedy prior-work methods ([17] adversarial,
// [18] dataset, [20] random) on one trained benchmark, reporting test
// duration, generation cost (fault simulations paid) and critical fault
// coverage.
//
//	go run ./examples/baseline_compare [-bench nmnist|ibm-gesture|shd]
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
	bench := flag.String("bench", "nmnist", "benchmark to compare on")
	flag.Parse()

	opts := experiments.ScaledOptions(snn.ScaleTiny, 1)
	opts.Log = os.Stderr
	// The greedy baselines fault-simulate every candidate against the
	// whole universe; stride the universe and keep the candidate pool
	// small so the comparison finishes in a couple of minutes.
	opts.FaultStride = 9
	opts.TrainPerClass = 2
	p, err := experiments.NewPipeline(*bench, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%s: trained to %.1f%% accuracy; fault universe %d\n\n",
		p.Benchmark, 100*p.Accuracy, len(p.Faults()))

	rows, err := experiments.Table4(context.Background(), p)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := experiments.RenderTable4(os.Stdout, rows); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// The headline asymmetry (Section IV-B): the greedy baselines verify
	// candidates by fault simulation (cost O(M·T_FS)); the proposed
	// method pays none during generation (O(M + T_FS)).
	fmt.Println("Generation-cost asymmetry:")
	for _, r := range rows {
		fmt.Printf("  %-18s %8d fault simulations, %6.2f samples of test, %6.2f%% critical FC\n",
			r.Method, r.FaultSims, r.DurationSamples, r.CriticalFC)
	}
}
