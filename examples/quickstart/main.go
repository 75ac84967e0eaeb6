// Quickstart: build a small spiking network, run the paper's test
// generation, compact the result, and verify the fault coverage of the
// optimized stimulus — the minimal end-to-end tour of the public API.
//
//	go run ./examples/quickstart
//
// Pass -trace trace.jsonl to record the run's observability stream
// (span tree + counters), -serve :9090 to watch the run's progress
// live (/runs), -v / -quiet to tune narration, and
// -profile-dir to capture phase-labelled pprof profiles — `go tool pprof
// -tags -sample_index=samples` tables them by pipeline phase.
// SIGINT/SIGTERM cancel the run gracefully: the partial result is
// reported and the trace is flushed intact.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	snntest "github.com/repro/snntest"
	"github.com/repro/snntest/internal/obs"
	"github.com/repro/snntest/internal/obs/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("quickstart", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var ocli telemetry.CLI
	ocli.Register(fs)
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
	ctx, root := obs.Start(sctx, "quickstart")
	defer root.End()
	rng := rand.New(rand.NewSource(1))

	// 1. Build a tiny NMNIST-style convolutional SNN (untrained weights
	//    are fine for a first tour; `go run ./cmd/benchreport -bench nmnist
	//    -table 3` runs the trained pipeline).
	net, err := snntest.BuildNMNIST(rng, snntest.ScaleTiny)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "network %q: %d neurons, %d synapses, input %v\n",
		net.Name, net.NumNeurons(), net.NumSynapses(), net.InShape)

	// 2. Illustrate the LIF dynamics (the paper's Fig. 1): drive the
	//    network with a constant stimulus and look at one spike train.
	demo := net.ZeroInput(12)
	for t := 0; t < 12; t++ {
		demo.Step(t).Fill(1)
	}
	rec := net.Run(demo)
	fmt.Fprintf(stdout, "conv neuron 0 spike train under constant drive: %v\n",
		rec.NeuronTrain(0, 0).Data())

	// 3. Generate the optimized test stimulus (Section IV). The reduced
	//    budget keeps this run in the seconds range.
	cfg := snntest.TestGenConfig()
	cfg.Seed = 2
	cfg.Log = log.Writer(obs.LevelDebug)
	res, err := snntest.GenerateTest(ctx, net, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "generated test: %d chunks, %d steps total, %.1f%% neurons activated, runtime %v\n",
		len(res.Chunks), res.TotalSteps(), 100*res.ActivatedFraction, res.Runtime.Round(1e6))

	// 4. Compact the test: drop chunks whose detected faults, each chunk
	//    simulated in isolation, are covered by the remaining chunks.
	faults := snntest.EnumerateFaults(net)
	log.Debugf("fault universe enumerated: %d faults", len(faults))
	res, cstats, err := snntest.CompactTest(ctx, net, res, faults, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "compacted test: %d -> %d chunks, %d -> %d steps\n",
		cstats.ChunksBefore, cstats.ChunksAfter, cstats.StepsBefore, cstats.StepsAfter)

	// 5. One final fault-simulation campaign verifies the coverage
	//    (Eq. 3/4) — the only campaign over the assembled test.
	sim, err := snntest.SimulateFaults(net, faults, res.Stimulus,
		snntest.CampaignOptions{Context: ctx})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "fault universe: %d faults; detected: %d (FC = %.2f%%)\n",
		len(faults), sim.NumDetected(), 100*float64(sim.NumDetected())/float64(len(faults)))
	fmt.Fprintf(stdout, "campaign work: %d of %d layer-steps simulated\n",
		sim.LayerSteps, sim.FullLayerSteps)
	return nil
}
