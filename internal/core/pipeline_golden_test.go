package core

import (
	"context"
	"math/rand"
	"testing"

	"github.com/repro/snntest/internal/fault"
	"github.com/repro/snntest/internal/snn"
	"github.com/repro/snntest/internal/tensor"
)

// runPipeline executes the full GenerateContext → CompactContext → fault
// campaign chain on the tiny NMNIST builder fixture with the given
// parallel settings, returning everything the golden assertions inspect.
func runPipeline(t *testing.T, par Parallel) (*Result, CompactionStats, float64) {
	t.Helper()
	net := must(snn.Build("nmnist", rand.New(rand.NewSource(97)), snn.ScaleTiny))
	cfg := TestConfig()
	cfg.Seed = 98
	cfg.Steps1 = 20
	cfg.MaxIterations = 3
	cfg.MaxGrowth = 1
	cfg.TInMin = 6
	cfg.Parallel = par
	res := must(GenerateContext(context.Background(), net, cfg))

	faults := fault.Enumerate(net, fault.DefaultOptions())
	compacted, stats, err := CompactContext(context.Background(), net, res, faults, 2)
	if err != nil {
		t.Fatal(err)
	}
	sim := must(fault.SimulateWith(net, faults, compacted.Stimulus, fault.CampaignOptions{Workers: 2}))
	coverage := float64(sim.NumDetected()) / float64(len(faults))
	return compacted, stats, coverage
}

// TestEquivPipelineGolden pins the end-to-end pipeline: the seed-fixed
// stimulus shape, activated fraction, and fault coverage must be stable
// across repeated runs and bit-identical between Workers=1 and Workers=4.
func TestEquivPipelineGolden(t *testing.T) {
	first, firstStats, firstCov := runPipeline(t, Parallel{Restarts: 4, Workers: 1})

	if first.Stimulus.Dim(0) < 1 {
		t.Fatal("pipeline produced an empty stimulus")
	}
	if first.ActivatedFraction <= 0 || first.ActivatedFraction > 1 {
		t.Fatalf("activated fraction %.3f out of (0,1]", first.ActivatedFraction)
	}
	if firstCov <= 0 {
		t.Fatal("compacted test detects no faults")
	}
	if firstStats.StepsAfter > firstStats.StepsBefore {
		t.Errorf("compaction grew the test: %d → %d steps", firstStats.StepsBefore, firstStats.StepsAfter)
	}

	rerun, rerunStats, rerunCov := runPipeline(t, Parallel{Restarts: 4, Workers: 1})
	if !tensor.Equal(first.Stimulus, rerun.Stimulus, 0) {
		t.Error("repeated run changed the stimulus despite the fixed seed")
	}
	if firstStats != rerunStats || firstCov != rerunCov {
		t.Errorf("repeated run changed stats/coverage: %+v/%.4f vs %+v/%.4f",
			firstStats, firstCov, rerunStats, rerunCov)
	}

	wide, wideStats, wideCov := runPipeline(t, Parallel{Restarts: 4, Workers: 4})
	if !tensor.Equal(first.Stimulus, wide.Stimulus, 0) {
		t.Error("Workers=4 pipeline stimulus differs from Workers=1")
	}
	if firstStats != wideStats || firstCov != wideCov {
		t.Errorf("Workers=4 changed stats/coverage: %+v/%.4f vs %+v/%.4f",
			firstStats, firstCov, wideStats, wideCov)
	}
}
