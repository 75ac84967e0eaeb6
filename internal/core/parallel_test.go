package core

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"github.com/repro/snntest/internal/snn"
	"github.com/repro/snntest/internal/tensor"
)

// fastParallelConfig is a minimal-budget config with the multi-restart
// engine enabled; TInMin is pinned so each case exercises the restart
// machinery rather than calibration.
func fastParallelConfig(restarts, workers int) Config {
	cfg := TestConfig()
	cfg.Steps1 = 20
	cfg.MaxIterations = 2
	cfg.MaxGrowth = 1
	cfg.TInMin = 6
	cfg.Seed = 21
	cfg.Parallel = Parallel{Restarts: restarts, Workers: workers}
	return cfg
}

// The tentpole determinism contract: the worker count must never change
// the generated stimulus. Checked bit-for-bit on every builder fixture.
func TestEquivGenerateWorkerCountInvariance(t *testing.T) {
	for _, benchmark := range []string{"nmnist", "ibm-gesture", "shd"} {
		t.Run(benchmark, func(t *testing.T) {
			net := must(snn.Build(benchmark, rand.New(rand.NewSource(31)), snn.ScaleTiny))
			serial := must(GenerateContext(context.Background(), net, fastParallelConfig(4, 1)))
			parallel := must(GenerateContext(context.Background(), net, fastParallelConfig(4, 4)))
			if !tensor.Equal(serial.Stimulus, parallel.Stimulus, 0) {
				t.Fatal("Workers=4 stimulus differs from Workers=1 at Restarts=4")
			}
			if len(serial.Trace) != len(parallel.Trace) {
				t.Fatalf("trace length differs: %d vs %d", len(serial.Trace), len(parallel.Trace))
			}
			for i := range serial.Trace {
				if serial.Trace[i] != parallel.Trace[i] {
					t.Errorf("trace[%d] differs: %+v vs %+v", i, serial.Trace[i], parallel.Trace[i])
				}
			}
		})
	}
}

// Restarts 0 and 1 are the same K=1 run of the restart engine: byte-
// identical stimuli and traces, and at Restarts=1 the worker count
// changes nothing either.
func TestEquivRestartsZeroAndOneAgree(t *testing.T) {
	net := smallNet(8)
	cfg := TestConfig()
	cfg.Seed = 9
	var results []*Result
	for _, par := range []Parallel{{}, {Restarts: 1, Workers: 1}, {Restarts: 1, Workers: 4}} {
		cfg.Parallel = par
		results = append(results, must(GenerateContext(context.Background(), net, cfg)))
	}
	ref := results[0]
	for i, res := range results[1:] {
		if !tensor.Equal(ref.Stimulus, res.Stimulus, 0) {
			t.Errorf("case %d: stimulus differs from Restarts=0", i+1)
		}
		if !slices.Equal(ref.Trace, res.Trace) {
			t.Errorf("case %d: trace differs from Restarts=0:\n%+v\n%+v", i+1, res.Trace, ref.Trace)
		}
	}
}

// Calibration through the parallel engine must also be worker-invariant,
// including the uncalibrated (TInMin=0) entry path of GenerateContext.
func TestEquivCalibrateTInMinParallelWorkerInvariance(t *testing.T) {
	net := smallNet(4)
	cfg := TestConfig()

	cfg.Parallel = Parallel{Restarts: 4, Workers: 1}
	t1 := must(CalibrateTInMinParallel(context.Background(), net, &cfg, 77))
	cfg.Parallel = Parallel{Restarts: 4, Workers: 4}
	t4 := must(CalibrateTInMinParallel(context.Background(), net, &cfg, 77))
	if t1 != t4 {
		t.Fatalf("calibrated T_in,min differs by worker count: %d vs %d", t1, t4)
	}
	if t1 < 1 || t1 > 64 {
		t.Errorf("parallel T_in,min = %d, implausible for a 2-layer net", t1)
	}

	genCfg := fastParallelConfig(2, 1)
	genCfg.TInMin = 0 // force the calibration entry path
	a := must(GenerateContext(context.Background(), net, genCfg))
	genCfg.Parallel.Workers = 4
	b := must(GenerateContext(context.Background(), net, genCfg))
	if a.TInMin != b.TInMin || !tensor.Equal(a.Stimulus, b.Stimulus, 0) {
		t.Error("calibrated parallel generation differs by worker count")
	}
}

// Trace provenance: iterations record which restart won and how many
// ran; a single restart reports 0/1.
func TestParallelTraceProvenance(t *testing.T) {
	net := smallNet(6)
	cfg := fastParallelConfig(3, 2)
	res := must(GenerateContext(context.Background(), net, cfg))
	if len(res.Trace) == 0 {
		t.Fatal("no iterations recorded")
	}
	for _, it := range res.Trace {
		if it.RestartsRun != 3 {
			t.Errorf("iteration %d: RestartsRun = %d, want 3", it.Iteration, it.RestartsRun)
		}
		if it.Restart < 0 || it.Restart >= 3 {
			t.Errorf("iteration %d: Restart = %d out of [0,3)", it.Iteration, it.Restart)
		}
	}

	cfg.Parallel = Parallel{}
	res = must(GenerateContext(context.Background(), net, cfg))
	for _, it := range res.Trace {
		if it.Restart != 0 || it.RestartsRun != 1 {
			t.Errorf("single-restart iteration %d: provenance %d/%d, want 0/1", it.Iteration, it.Restart, it.RestartsRun)
		}
	}
}

// A cancelled context stops the parallel engine gracefully: a partial
// (here empty) result, never an error.
func TestGenerateContextCancelledParallel(t *testing.T) {
	net := smallNet(10)
	cfg := fastParallelConfig(4, 2)
	cfg.TimeLimit = TestConfig().TimeLimit
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := must(GenerateContext(ctx, net, cfg))
	if len(res.Chunks) != 0 {
		t.Errorf("cancelled run produced %d chunks", len(res.Chunks))
	}
	if res.Stimulus == nil {
		t.Error("cancelled run must still assemble an (empty) stimulus")
	}
}

// Stress the concurrent restart machinery for the -race gate: many
// restarts, maximum contention, repeated runs sharing one trained-style
// network value.
func TestParallelRestartsRaceStress(t *testing.T) {
	net := smallNet(12)
	cfg := fastParallelConfig(6, 6)
	cfg.MaxIterations = 1
	cfg.Steps1 = 10
	var first *tensor.Tensor
	for rep := 0; rep < 3; rep++ {
		res := must(GenerateContext(context.Background(), net, cfg))
		if first == nil {
			first = res.Stimulus
		} else if !tensor.Equal(first, res.Stimulus, 0) {
			t.Fatalf("rep %d: stimulus changed across identical runs", rep)
		}
	}
}
