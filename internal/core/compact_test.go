package core

import (
	"context"
	"testing"

	"github.com/repro/snntest/internal/fault"
	"github.com/repro/snntest/internal/tensor"
)

func TestCompactPreservesCoverage(t *testing.T) {
	net := smallNet(20)
	cfg := TestConfig()
	cfg.Seed = 21
	cfg.MinNewFraction = 0 // let redundant chunks accumulate
	res := must(GenerateContext(context.Background(), net, cfg))
	faults := fault.Enumerate(net, fault.DefaultOptions())

	before := must(fault.SimulateWith(net, faults, res.Stimulus, fault.CampaignOptions{Workers: 1})).NumDetected()
	compacted, stats, err := CompactContext(context.Background(), net, res, faults, 1)
	if err != nil {
		t.Fatal(err)
	}
	after := must(fault.SimulateWith(net, faults, compacted.Stimulus, fault.CampaignOptions{Workers: 1})).NumDetected()

	if stats.ChunksAfter > stats.ChunksBefore || stats.StepsAfter > stats.StepsBefore {
		t.Errorf("compaction grew the test: %+v", stats)
	}
	// The compactor certifies the union of isolated-chunk campaigns, not
	// the assembled test: with leak < 1 the zero separators only decay
	// membranes toward rest, so cross-chunk state can move the assembled
	// count either way (on IBM at seed 7 the union is 1,099 against the
	// test's 1,113). No such carry-over changes a detection on this toy
	// fixture, which pins that coverage does not regress here and that
	// the certified count bounds the observed one.
	if after < before {
		t.Errorf("compaction lost coverage: %d → %d detected", before, after)
	}
	if stats.Detected < after {
		t.Errorf("certified %d < observed %d", stats.Detected, after)
	}
}

func TestCompactSingleChunkNoop(t *testing.T) {
	net := smallNet(22)
	cfg := TestConfig()
	cfg.Seed = 23
	cfg.MaxIterations = 1
	res := must(GenerateContext(context.Background(), net, cfg))
	if len(res.Chunks) != 1 {
		t.Skip("needs a single-chunk result")
	}
	faults := fault.Enumerate(net, fault.DefaultOptions())
	compacted, stats, err := CompactContext(context.Background(), net, res, faults, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ChunksAfter != 1 || compacted.TotalSteps() != res.TotalSteps() {
		t.Error("single-chunk compaction must be a no-op")
	}
}

func TestCompactDropsRedundantChunk(t *testing.T) {
	// Hand-build a result with a duplicated chunk: the duplicate detects
	// exactly the same faults, so compaction must drop one copy.
	net := smallNet(24)
	cfg := TestConfig()
	cfg.Seed = 25
	cfg.MaxIterations = 1
	res := must(GenerateContext(context.Background(), net, cfg))
	dup := &Result{
		Chunks:    []*tensor.Tensor{res.Chunks[0], res.Chunks[0].Clone()},
		TInMin:    res.TInMin,
		Activated: res.Activated,
	}
	dup.Stimulus = Assemble(net, dup.Chunks)
	faults := fault.Enumerate(net, fault.DefaultOptions())
	_, stats, err := CompactContext(context.Background(), net, dup, faults, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ChunksAfter != 1 {
		t.Errorf("duplicate chunk not dropped: %+v", stats)
	}
}
