package telemetry

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/repro/snntest/internal/fault"
	"github.com/repro/snntest/internal/obs"
	"github.com/repro/snntest/internal/snn"
	"github.com/repro/snntest/internal/tensor"
)

func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// tinyNet mirrors the fault package's test network: 4 → 6 → 3 dense LIF.
func tinyNet(seed int64) *snn.Network {
	rng := rand.New(rand.NewSource(seed))
	l1 := must(snn.NewLayer("h", must(snn.NewDenseProj(tensor.RandNormal(rng, 0.2, 0.5, 6, 4))), snn.DefaultLIF()))
	l2 := must(snn.NewLayer("out", must(snn.NewDenseProj(tensor.RandNormal(rng, 0.2, 0.5, 3, 6))), snn.DefaultLIF()))
	return must(snn.NewNetwork("tiny", []int{4}, 1.0, l1, l2))
}

func denseStim(seed int64, net *snn.Network, steps int) *tensor.Tensor {
	return tensor.RandBernoulli(rand.New(rand.NewSource(seed)), 0.6, append([]int{steps}, net.InShape...)...)
}

// withObs turns the obs layer on for one test with the given sinks and
// restores the dark default afterwards.
func withObs(t *testing.T, sinks ...obs.Sink) {
	t.Helper()
	obs.SetSinks(sinks...)
	obs.ResetCounters()
	obs.Enable()
	t.Cleanup(func() {
		obs.Disable()
		obs.SetSinks()
		obs.ResetCounters()
	})
}

func TestRunsMonotonicDuringCampaign(t *testing.T) {
	s := New()
	withRunEvents(t, s.Sink())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	net := tinyNet(41)
	faults := fault.Enumerate(net, fault.DefaultOptions())
	samples := []*tensor.Tensor{denseStim(42, net, 8)}

	fetchRuns := func() []RunProgress {
		resp, err := http.Get(ts.URL + "/runs")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rr runsResponse
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatal(err)
		}
		return rr.Runs
	}
	classifyRun := func(runs []RunProgress) (RunProgress, bool) {
		for _, r := range runs {
			if r.Phase == "campaign/classify" {
				return r, true
			}
		}
		return RunProgress{}, false
	}

	// The classify reporter emits every 64 completions, so this campaign
	// produces several live snapshots; each /runs read mid-campaign must
	// see a done count that never moves backwards.
	var mu sync.Mutex
	lastDone, snapshots := -1, 0
	cls, err := fault.ClassifyWith(net, faults, samples, fault.CampaignOptions{
		Workers: 2,
		Progress: func(done int) {
			mu.Lock()
			defer mu.Unlock()
			r, ok := classifyRun(fetchRuns())
			if !ok {
				t.Error("campaign/classify run missing from /runs after run_start")
				return
			}
			if r.Done < lastDone {
				t.Errorf("/runs done moved backwards: %d after %d", r.Done, lastDone)
			}
			if r.Done > r.Total {
				t.Errorf("/runs done %d > total %d", r.Done, r.Total)
			}
			lastDone = r.Done
			snapshots++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if snapshots < 2 {
		t.Errorf("only %d mid-campaign snapshots; want several (faults=%d, stride 64)", snapshots, len(faults))
	}

	r, ok := classifyRun(fetchRuns())
	if !ok {
		t.Fatal("no campaign/classify run after completion")
	}
	if !r.Terminal || r.Done != len(faults) || r.Total != len(faults) {
		t.Errorf("final run = %+v, want terminal with done == total == %d", r, len(faults))
	}
	if r.ETAMS != 0 {
		t.Errorf("terminal run ETA = %d, want 0", r.ETAMS)
	}

	// /runs/{id} serves the same record; unknown ids 404.
	resp, err := http.Get(ts.URL + "/runs/" + r.ID)
	if err != nil {
		t.Fatal(err)
	}
	var byID RunProgress
	if err := json.NewDecoder(resp.Body).Decode(&byID); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if byID.ID != r.ID || byID.Done != r.Done {
		t.Errorf("/runs/%s = %+v, want %+v", r.ID, byID, r)
	}
	resp, err = http.Get(ts.URL + "/runs/no-such-run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/runs/no-such-run status = %d, want 404", resp.StatusCode)
	}

	// The run record and the campaign counters must reconcile exactly
	// with the final ClassifyResult — the acceptance contract for live
	// fault coverage.
	critical := 0
	for _, c := range cls.Critical {
		if c {
			critical++
		}
	}
	snap := obs.Snapshot()
	for name, want := range map[string]int64{
		"fault_classified_total": int64(len(faults)),
		"fault_critical_total":   int64(critical),
	} {
		if got := snap[name]; got != want {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
	if r.Detected != int64(critical) {
		t.Errorf("run detected = %d, want critical count %d", r.Detected, critical)
	}
}

func TestSimulateCoverageReconciles(t *testing.T) {
	s := New()
	withRunEvents(t, s.Sink())

	net := tinyNet(43)
	faults := fault.Enumerate(net, fault.DefaultOptions())
	sim, err := fault.SimulateWith(net, faults, denseStim(44, net, 10), fault.CampaignOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	snap := obs.Snapshot()
	if got, want := snap["fault_detected_total"], int64(sim.NumDetected()); got != want {
		t.Errorf("fault_detected_total = %d, want NumDetected %d", got, want)
	}
	if got, want := snap["fault_simulated_total"], int64(len(faults)); got != want {
		t.Errorf("fault_simulated_total = %d, want %d", got, want)
	}

	var run RunProgress
	for _, r := range s.Sink().Runs() {
		if r.Phase == "campaign/simulate" {
			run = r
		}
	}
	if run.ID == "" || !run.Terminal {
		t.Fatalf("no terminal campaign/simulate run: %+v", run)
	}
	if run.Detected != int64(sim.NumDetected()) {
		t.Errorf("run detected = %d, want %d", run.Detected, sim.NumDetected())
	}
	wantCov := 100 * float64(sim.NumDetected()) / float64(len(faults))
	if run.CoveragePercent != wantCov {
		t.Errorf("run coverage = %v%%, want %v%%", run.CoveragePercent, wantCov)
	}
}

// TestRoutes pins the route set: the four /runs routes answer for a
// tracked run, and nothing else is served.
func TestRoutes(t *testing.T) {
	s := New()
	s.Sink().Emit(obs.Event{Kind: obs.KindRunStart, Name: "campaign/simulate", Run: "r1", Total: 1, Start: time.Now()})
	h := s.Handler()
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/runs", http.StatusOK},
		{"/runs/r1", http.StatusOK},
		{"/runs/r1/coverage", http.StatusOK},
		{"/runs/r1/events", http.StatusOK},
		{"/metrics", http.StatusNotFound},
		{"/healthz", http.StatusNotFound},
		{"/readyz", http.StatusNotFound},
		{"/debug/pprof/", http.StatusNotFound},
	} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, tc.path, nil))
		if rr.Code != tc.want {
			t.Errorf("GET %s status = %d, want %d", tc.path, rr.Code, tc.want)
		}
	}
}

// TestServerLifecycle serves /runs between Start and Shutdown, and
// stops listening after Shutdown.
func TestServerLifecycle(t *testing.T) {
	s := New()
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	var rr runsResponse
	err = json.NewDecoder(resp.Body).Decode(&rr)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(rr.Runs) != 0 {
		t.Errorf("GET /runs = %d %+v, want 200 with no runs", resp.StatusCode, rr.Runs)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if resp, err := http.Get("http://" + addr + "/runs"); err == nil {
		resp.Body.Close()
		t.Error("GET /runs after Shutdown succeeded, want a connection error")
	}
}
