package fault

import (
	"context"
	"sync"
	"testing"

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

// progressLog records every Progress callback under a lock so the test
// can inspect the full call sequence.
type progressLog struct {
	mu    sync.Mutex
	calls []int
}

func (l *progressLog) fn(done int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.calls = append(l.calls, done)
}

func (l *progressLog) terminalCalls(total int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, c := range l.calls {
		if c == total {
			n++
		}
	}
	return n
}

// TestProgressTerminalGuaranteed is the regression test for the progress
// contract: every campaign reports done == total exactly once — including
// an empty fault list (where no per-fault tick ever fires) and totals
// that are not a multiple of the reporting stride.
func TestProgressTerminalGuaranteed(t *testing.T) {
	net := tinyNet(91)
	stim := denseStim(92, net, 8)
	samples := []*tensor.Tensor{denseStim(93, net, 6)}
	universe := Enumerate(net, DefaultOptions())

	for _, tc := range []struct {
		name    string
		nfaults int
		workers int
	}{
		{"empty", 0, 1},
		{"single", 1, 1},
		{"non-stride-multiple", 7, 1},
		{"parallel", len(universe), 4},
	} {
		t.Run("simulate/"+tc.name, func(t *testing.T) {
			var log progressLog
			_, err := SimulateWith(net, universe[:tc.nfaults], stim, CampaignOptions{
				Workers:  tc.workers,
				Progress: log.fn,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := log.terminalCalls(tc.nfaults); got != 1 {
				t.Errorf("terminal done==%d reported %d times, want exactly 1 (calls: %v)",
					tc.nfaults, got, log.calls)
			}
		})
		t.Run("classify/"+tc.name, func(t *testing.T) {
			var log progressLog
			_, err := ClassifyWith(net, universe[:tc.nfaults], samples, CampaignOptions{
				Workers:  tc.workers,
				Progress: log.fn,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := log.terminalCalls(tc.nfaults); got != 1 {
				t.Errorf("terminal done==%d reported %d times, want exactly 1 (calls: %v)",
					tc.nfaults, got, log.calls)
			}
		})
	}
}

// TestObsCampaignCountersReconcile pins the obs counters to the campaign
// results they mirror: after one simulate and one classify campaign the
// counter deltas must equal the corresponding result fields exactly.
func TestObsCampaignCountersReconcile(t *testing.T) {
	rec := withObsRecorder(t)
	net := tinyNet(94)
	faults := Enumerate(net, DefaultOptions())
	stim := denseStim(95, net, 10)
	samples := []*tensor.Tensor{denseStim(96, net, 8)}

	sim, err := SimulateWith(net, faults, stim, CampaignOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cls, err := ClassifyWith(net, faults, samples, CampaignOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	critical := 0
	for _, c := range cls.Critical {
		if c {
			critical++
		}
	}
	snap := obs.Snapshot()
	want := map[string]int64{
		"fault_simulated_total":        int64(len(faults)),
		"fault_detected_total":         int64(sim.NumDetected()),
		"fault_classified_total":       int64(len(faults)),
		"fault_critical_total":         int64(critical),
		"fault_layer_steps_total":      sim.LayerSteps + cls.LayerSteps,
		"fault_full_layer_steps_total": sim.FullLayerSteps + cls.FullLayerSteps,
	}
	for name, w := range want {
		if snap[name] != w {
			t.Errorf("counter %s = %d, want %d", name, snap[name], w)
		}
	}

	// The snn hot-path counters must cover at least the campaign work
	// (golden runs add more, never less).
	if snap["snn_layer_steps_total"] < want["fault_layer_steps_total"] {
		t.Errorf("snn_layer_steps_total = %d < campaign layer-steps %d",
			snap["snn_layer_steps_total"], want["fault_layer_steps_total"])
	}
	if snap["snn_forward_passes_total"] == 0 || snap["snn_spikes_total"] == 0 {
		t.Errorf("snn counters dead: %v", snap)
	}

	if got := len(rec.SpansNamed("campaign/simulate")); got != 1 {
		t.Errorf("campaign/simulate spans = %d, want 1", got)
	}
	if got := len(rec.SpansNamed("campaign/classify")); got != 1 {
		t.Errorf("campaign/classify spans = %d, want 1", got)
	}
}

// TestObsFusedForwardCountersReconcile pins the fused engine (the
// default campaign path — reference engine off) to the obs layer: the
// forward-pass and layer-step counters must reconcile exactly with the
// SimResult a campaign returns. PR 4 established this contract on the
// reference path; PR 8's fused kernels route observe() through a
// different step function and must uphold it byte-for-byte.
func TestObsFusedForwardCountersReconcile(t *testing.T) {
	withObsRecorder(t)
	net := tinyNet(101)
	faults := Enumerate(net, DefaultOptions())
	stim := denseStim(102, net, 9)
	goldenSteps := int64(len(net.Layers)) * int64(stim.Dim(0))

	sim, err := SimulateWith(net, faults, stim, CampaignOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	snap := obs.Snapshot()
	// One golden pass plus exactly one (early-exiting) pass per fault.
	if want := int64(1 + len(faults)); snap["snn_forward_passes_total"] != want {
		t.Errorf("snn_forward_passes_total = %d, want golden+faults = %d",
			snap["snn_forward_passes_total"], want)
	}
	if want := goldenSteps + sim.LayerSteps; snap["snn_layer_steps_total"] != want {
		t.Errorf("snn_layer_steps_total = %d, want golden %d + campaign %d",
			snap["snn_layer_steps_total"], goldenSteps, sim.LayerSteps)
	}
	if snap["snn_spikes_total"] == 0 {
		t.Error("fused path observed zero spikes")
	}

	// Full re-simulation on the fused path reconciles the same way, and
	// its layer-steps match the campaign's own full-work accounting.
	obs.ResetCounters()
	full, err := SimulateWith(net, faults, stim, CampaignOptions{Workers: 2, FullResim: true})
	if err != nil {
		t.Fatal(err)
	}
	snap = obs.Snapshot()
	if want := int64(1 + len(faults)); snap["snn_forward_passes_total"] != want {
		t.Errorf("full-resim snn_forward_passes_total = %d, want %d",
			snap["snn_forward_passes_total"], want)
	}
	if want := goldenSteps + full.LayerSteps; snap["snn_layer_steps_total"] != want {
		t.Errorf("full-resim snn_layer_steps_total = %d, want %d",
			snap["snn_layer_steps_total"], want)
	}
	if full.LayerSteps != full.FullLayerSteps {
		t.Errorf("full resim did %d layer-steps, accounting says %d",
			full.LayerSteps, full.FullLayerSteps)
	}
}

// TestObsFusedSpikesMatchReference: for the same forward pass, the fused
// kernels must report the exact spike and layer-step counts the
// reference engine reports — the counter half of the engine-equivalence
// gate.
func TestObsFusedSpikesMatchReference(t *testing.T) {
	withObsRecorder(t)
	net := tinyNet(103)
	stim := denseStim(104, net, 9)

	fused := net.NewScratch()
	if _, n := fused.RunFrom(0, nil, stim); n == 0 {
		t.Fatal("fused pass ran zero layer-steps")
	}
	fusedSnap := obs.Snapshot()

	obs.ResetCounters()
	ref := net.NewScratch()
	ref.SetReference(true)
	if _, n := ref.RunFrom(0, nil, stim); n == 0 {
		t.Fatal("reference pass ran zero layer-steps")
	}
	refSnap := obs.Snapshot()

	for _, name := range []string{"snn_spikes_total", "snn_layer_steps_total", "snn_forward_passes_total"} {
		if fusedSnap[name] != refSnap[name] {
			t.Errorf("%s: fused %d != reference %d", name, fusedSnap[name], refSnap[name])
		}
	}
	if fusedSnap["snn_spikes_total"] == 0 {
		t.Error("both engines observed zero spikes; stimulus too weak to gate anything")
	}
}

// TestObsCampaignSpanParenting checks CampaignOptions.Context: a span
// open in the caller's context becomes the campaign span's parent.
func TestObsCampaignSpanParenting(t *testing.T) {
	rec := withObsRecorder(t)
	obs.SetRunEvents(true)
	t.Cleanup(func() { obs.SetRunEvents(false) })
	net := tinyNet(97)
	faults := SampleUniverse(net, DefaultOptions(), 5)
	stim := denseStim(98, net, 8)

	ctx, root := obs.Start(context.Background(), "test-root")
	if _, err := SimulateWith(net, faults, stim, CampaignOptions{Context: ctx}); err != nil {
		t.Fatal(err)
	}
	root.End()

	spans := rec.SpansNamed("campaign/simulate")
	if len(spans) != 1 {
		t.Fatalf("campaign/simulate spans = %d, want 1", len(spans))
	}
	roots := rec.SpansNamed("test-root")
	if len(roots) != 1 || spans[0].Parent != roots[0].ID {
		t.Errorf("campaign span parent = %d, want root id %d", spans[0].Parent, roots[0].ID)
	}

	// The run's progress stream carries the same guaranteed terminal
	// event.
	var sawTerminal bool
	for _, e := range rec.Events() {
		if e.Kind == obs.KindProgress && e.Name == "campaign/simulate" && e.Run != "" &&
			e.Done == len(faults) && e.Total == len(faults) {
			sawTerminal = true
		}
	}
	if !sawTerminal {
		t.Error("no terminal progress event for campaign/simulate")
	}
}
