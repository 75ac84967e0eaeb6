package core

import (
	"context"
	"math/bits"
	"testing"

	"github.com/repro/snntest/internal/fault"
	"github.com/repro/snntest/internal/obs"
	"github.com/repro/snntest/internal/tensor"
)

// withObsRecorder turns the obs layer on for one test, backed by an
// in-memory recorder, and restores the dark default afterwards.
func withObsRecorder(t *testing.T) *obs.Recorder {
	t.Helper()
	rec := &obs.Recorder{}
	obs.SetSinks(rec)
	obs.ResetCounters()
	obs.Enable()
	t.Cleanup(func() {
		obs.Disable()
		obs.SetSinks()
		obs.ResetCounters()
	})
	return rec
}

// spanByName returns the single recorded span with the given name.
func spanByName(t *testing.T, rec *obs.Recorder, name string) obs.Event {
	t.Helper()
	spans := rec.SpansNamed(name)
	if len(spans) != 1 {
		t.Fatalf("spans named %q = %d, want 1", name, len(spans))
	}
	return spans[0]
}

// TestObsGenerateSpanTree runs a one-restart generation under a recorder
// and checks the span tree: calibrate, iterations, restarts and stage 2
// all nest under one generate root, and the counters reconcile with Trace.
func TestObsGenerateSpanTree(t *testing.T) {
	rec := withObsRecorder(t)
	net := smallNet(21)
	cfg := TestConfig()
	cfg.Seed = 22
	res := must(GenerateContext(context.Background(), net, cfg))

	root := spanByName(t, rec, "generate")
	if root.Parent != 0 {
		t.Errorf("generate span has parent %d, want root", root.Parent)
	}
	calib := spanByName(t, rec, "generate/calibrate")
	if calib.Parent != root.ID {
		t.Errorf("calibrate parent = %d, want generate id %d", calib.Parent, root.ID)
	}

	iters := rec.SpansNamed("generate/iteration")
	if len(iters) != len(res.Trace) {
		t.Fatalf("iteration spans = %d, want %d (one per Trace entry)", len(iters), len(res.Trace))
	}
	iterIDs := make(map[uint64]bool, len(iters))
	for _, it := range iters {
		if it.Parent != root.ID {
			t.Errorf("iteration span parent = %d, want generate id %d", it.Parent, root.ID)
		}
		iterIDs[it.ID] = true
	}
	restarts := rec.SpansNamed("generate/restart")
	if len(restarts) != len(res.Trace) {
		t.Errorf("restart spans = %d, want %d (one restart per iteration)", len(restarts), len(res.Trace))
	}
	for _, r := range restarts {
		if !iterIDs[r.Parent] {
			t.Errorf("restart span parent %d is not an iteration span", r.Parent)
		}
	}
	if got := len(rec.SpansNamed("generate/stage2")); got != len(res.Trace) {
		t.Errorf("stage2 spans = %d, want %d", got, len(res.Trace))
	}

	snap := obs.Snapshot()
	if snap["core_iterations_total"] != int64(len(res.Trace)) {
		t.Errorf("core_iterations_total = %d, want %d", snap["core_iterations_total"], len(res.Trace))
	}
	wantRestarts := int64(0)
	for _, tr := range res.Trace {
		wantRestarts += int64(tr.RestartsRun)
	}
	if snap["core_restarts_run_total"] != wantRestarts {
		t.Errorf("core_restarts_run_total = %d, want %d", snap["core_restarts_run_total"], wantRestarts)
	}
	if snap["snn_forward_passes_total"] == 0 {
		t.Error("generator ran with zero recorded forward passes")
	}
}

// TestObsParallelRestartSpans covers the multi-restart path: one restart
// span per evaluated restart, parented under its iteration.
func TestObsParallelRestartSpans(t *testing.T) {
	rec := withObsRecorder(t)
	net := smallNet(23)
	cfg := TestConfig()
	cfg.Seed = 24
	cfg.Parallel.Restarts = 3
	cfg.Parallel.Workers = 2
	res := must(GenerateContext(context.Background(), net, cfg))

	wantRestarts := 0
	for _, tr := range res.Trace {
		wantRestarts += tr.RestartsRun
	}
	if got := len(rec.SpansNamed("generate/restart")); got != wantRestarts {
		t.Errorf("restart spans = %d, want Σ RestartsRun = %d", got, wantRestarts)
	}
	if got := len(rec.SpansNamed("generate/calibrate/candidate")); got == 0 {
		t.Error("parallel calibration emitted no candidate spans")
	}
}

// TestObsCalibrateEarlyExit pins the calibration early exit: with one
// worker no candidate above the first successful duration is optimized,
// and the result matches a four-worker run.
func TestObsCalibrateEarlyExit(t *testing.T) {
	rec := withObsRecorder(t)
	net := smallNet(4)
	cfg := TestConfig()
	cfg.Parallel.Workers = 1
	t1 := must(CalibrateTInMinParallel(context.Background(), net, &cfg, 5))
	cands := rec.SpansNamed("generate/calibrate/candidate")
	// One span per duration 1, 2, …, t1 means t1 succeeded and nothing
	// above it ran; a failed search would have optimized all ten.
	if want := bits.Len(uint(t1)); len(cands) != want {
		t.Fatalf("Workers=1 optimized %d candidates for T_in,min = %d, want %d", len(cands), t1, want)
	}
	for _, c := range cands {
		if d, _ := c.Attrs["duration"].(int); d > t1 {
			t.Errorf("candidate duration %d optimized above the first success %d", d, t1)
		}
	}

	cfg.Parallel.Workers = 4
	if t4 := must(CalibrateTInMinParallel(context.Background(), net, &cfg, 5)); t4 != t1 {
		t.Errorf("Workers=4 T_in,min = %d, Workers=1 gave %d", t4, t1)
	}
}

// TestObsGenerateBitIdentical is the zero-interference gate: the obs
// layer (enabled with a live recorder) must not change the generated
// stimulus by a single byte relative to a dark run.
func TestObsGenerateBitIdentical(t *testing.T) {
	net := smallNet(25)
	cfg := TestConfig()
	cfg.Seed = 26
	dark := must(GenerateContext(context.Background(), net.Clone(), cfg))

	withObsRecorder(t)
	lit := must(GenerateContext(context.Background(), net.Clone(), cfg))

	if !tensor.Equal(dark.Stimulus, lit.Stimulus, 0) {
		t.Fatal("enabling obs changed the generated stimulus")
	}
	if len(dark.Trace) != len(lit.Trace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(dark.Trace), len(lit.Trace))
	}
}

// TestObsCompactSpanNestsCampaigns checks CompactContext: the compact
// span parents the per-chunk fault campaigns.
func TestObsCompactSpanNestsCampaigns(t *testing.T) {
	rec := withObsRecorder(t)
	net := smallNet(27)
	cfg := TestConfig()
	cfg.Seed = 28
	res := must(GenerateContext(context.Background(), net, cfg))
	faults := fault.Enumerate(net, fault.DefaultOptions())

	_, _, err := CompactContext(context.Background(), net, res, faults, 2)
	if err != nil {
		t.Fatal(err)
	}
	comp := spanByName(t, rec, "compact")
	sims := rec.SpansNamed("campaign/simulate")
	if len(sims) == 0 {
		t.Fatal("compaction ran no fault campaigns")
	}
	for _, s := range sims {
		if s.Parent != comp.ID {
			t.Errorf("campaign span parent = %d, want compact id %d", s.Parent, comp.ID)
		}
	}
}

// TestObsCalibrateLongestFirst pins the multi-worker calibration order on
// a network whose calibration succeeds: the same T_in,min at 1, 2 and 4
// workers, and every candidate above it that a pool started returned
// before its step budget ran out, by succeeding itself or by stopping once
// a shorter duration was known to succeed.
func TestObsCalibrateLongestFirst(t *testing.T) {
	rec := withObsRecorder(t)
	net := smallNet(4)
	cfg := TestConfig()
	budget := calibrationBudget(&cfg)
	want := 0
	for _, workers := range []int{1, 2, 4} {
		rec.Reset()
		cfg.Parallel.Workers = workers
		got := must(CalibrateTInMinParallel(context.Background(), net, &cfg, 5))
		if workers == 1 {
			want = got
		} else if got != want {
			t.Fatalf("Workers=%d T_in,min = %d, Workers=1 gave %d", workers, got, want)
		}
		above := 0
		for _, c := range rec.SpansNamed("generate/calibrate/candidate") {
			d, _ := c.Attrs["duration"].(int)
			steps, _ := c.Attrs["steps"].(int)
			success, _ := c.Attrs["success"].(bool)
			if d <= want {
				continue
			}
			above++
			if !success && steps >= budget {
				t.Errorf("Workers=%d: candidate %d above T_in,min = %d ran its whole %d-step budget", workers, d, want, budget)
			}
		}
		if workers > 1 && above == 0 {
			t.Errorf("Workers=%d started no candidate above T_in,min = %d: the pool did not claim the longest first", workers, want)
		}
	}
}
