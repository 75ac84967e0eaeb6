package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/repro/snntest/internal/fault"
	"github.com/repro/snntest/internal/obs"
	"github.com/repro/snntest/internal/obs/ledger"
)

// withRunEvents layers the flight-recorder gate on withObs for one
// test, restoring the dark default afterwards.
func withRunEvents(t *testing.T, sinks ...obs.Sink) {
	t.Helper()
	withObs(t, sinks...)
	obs.SetRunEvents(true)
	t.Cleanup(func() { obs.SetRunEvents(false) })
}

// getJSON fetches path from the handler and decodes the response into v,
// returning the status code.
func getJSON(t *testing.T, h http.Handler, path string, v any) int {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
	if v != nil && rr.Code == http.StatusOK {
		if err := json.Unmarshal(rr.Body.Bytes(), v); err != nil {
			t.Fatalf("GET %s: bad JSON: %v\n%s", path, err, rr.Body.String())
		}
	}
	return rr.Code
}

// TestCoverageEndpointReconcilesWithCampaign is the acceptance-criterion
// test: after a real simulate campaign, /runs/{id}/coverage's last curve
// point must equal detected/total from the CampaignResult exactly.
func TestCoverageEndpointReconcilesWithCampaign(t *testing.T) {
	s := New()
	withRunEvents(t, s.Sink())

	net := tinyNet(51)
	faults := fault.Enumerate(net, fault.DefaultOptions())
	stim := denseStim(52, net, 12)
	sim, err := fault.SimulateWith(net, faults, stim, fault.CampaignOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
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

	var curve ledger.Curve
	if code := getJSON(t, s.Handler(), "/runs/"+run.ID+"/coverage", &curve); code != http.StatusOK {
		t.Fatalf("/runs/%s/coverage status = %d", run.ID, code)
	}
	if curve.Total != len(faults) || curve.Done != len(faults) || !curve.Terminal {
		t.Fatalf("curve tallies = %+v, want terminal over %d faults", curve, len(faults))
	}
	if curve.Detected != sim.NumDetected() {
		t.Errorf("curve detected = %d, want CampaignResult %d", curve.Detected, sim.NumDetected())
	}
	if curve.Steps != 12 {
		t.Errorf("curve steps = %d, want stimulus duration 12", curve.Steps)
	}
	if len(curve.Points) == 0 {
		t.Fatal("campaign curve has no points")
	}
	last := curve.Points[len(curve.Points)-1]
	if last.Detected != sim.NumDetected() {
		t.Errorf("last curve point = %d detections, want %d", last.Detected, sim.NumDetected())
	}
	if want := float64(sim.NumDetected()) / float64(len(faults)); last.Coverage != want {
		t.Errorf("last curve point coverage = %v, want detected/total %v", last.Coverage, want)
	}
	if curve.FinalCoverage != float64(sim.NumDetected())/float64(len(faults)) {
		t.Errorf("final coverage = %v, want %v", curve.FinalCoverage, float64(sim.NumDetected())/float64(len(faults)))
	}
	for i := 1; i < len(curve.Points); i++ {
		if curve.Points[i].Detected < curve.Points[i-1].Detected || curve.Points[i].Step <= curve.Points[i-1].Step {
			t.Errorf("curve not monotone at %d: %+v after %+v", i, curve.Points[i], curve.Points[i-1])
		}
	}
	if curve.LayerSteps != sim.LayerSteps {
		t.Errorf("curve layer steps = %d, want campaign %d", curve.LayerSteps, sim.LayerSteps)
	}

	// The journal tail serves the run's lifecycle in order.
	var events runEventsResponse
	if code := getJSON(t, s.Handler(), "/runs/"+run.ID+"/events", &events); code != http.StatusOK {
		t.Fatalf("/runs/%s/events status = %d", run.ID, code)
	}
	if len(events.Events) < 2 {
		t.Fatalf("only %d events retained", len(events.Events))
	}
	if events.Events[0].Kind != "run_start" || events.Events[len(events.Events)-1].Kind != "run_end" {
		t.Errorf("event tail out of order: first %q last %q",
			events.Events[0].Kind, events.Events[len(events.Events)-1].Kind)
	}

	// Unknown runs 404.
	if code := getJSON(t, s.Handler(), "/runs/no-such/coverage", nil); code != http.StatusNotFound {
		t.Errorf("/runs/no-such/coverage status = %d, want 404", code)
	}
	if code := getJSON(t, s.Handler(), "/runs/no-such/events", nil); code != http.StatusNotFound {
		t.Errorf("/runs/no-such/events status = %d, want 404", code)
	}
}

// TestRunsStoreBounded is the satellite regression test: hammering the
// sink with far more runs than the retention cap must keep the store at
// the cap, evicting oldest-first, with curve state evicted alongside.
func TestRunsStoreBounded(t *testing.T) {
	s := NewSink()
	const extra = 17
	now := time.Now()
	for i := 0; i < maxRuns+extra; i++ {
		run := fmt.Sprintf("hammer-%04d", i)
		s.Emit(obs.Event{Kind: obs.KindRunStart, Run: run, Name: "campaign/simulate", Total: 1, Start: now})
		s.Emit(obs.Event{Kind: obs.KindFault, Run: run, Name: "campaign/simulate",
			Fault: &obs.FaultOutcome{Index: 0, Detected: true, DivStep: 0}, Start: now})
		s.Emit(obs.Event{Kind: obs.KindRunEnd, Run: run, Done: 1, Total: 1, Start: now})
	}
	runs := s.Runs()
	if len(runs) != maxRuns {
		t.Fatalf("store holds %d runs after %d, want cap %d", len(runs), maxRuns+extra, maxRuns)
	}
	// Oldest evicted: the survivors are exactly the last maxRuns ids.
	if got, want := runs[0].ID, fmt.Sprintf("hammer-%04d", extra); got != want {
		t.Errorf("oldest surviving run = %s, want %s", got, want)
	}
	if _, ok := s.Run("hammer-0000"); ok {
		t.Error("evicted run still queryable")
	}
	if _, known := s.Coverage("hammer-0000"); known {
		t.Error("evicted run's curve still held")
	}
	// Runs first seen through progress respect the same bound.
	s2 := NewSink()
	for i := 0; i < maxRuns+extra; i++ {
		s2.Emit(obs.Event{Kind: obs.KindProgress, Run: fmt.Sprintf("progress-%04d", i), Name: "generate", Done: 1, Total: 1, Start: now})
	}
	if n := len(s2.Runs()); n != maxRuns {
		t.Errorf("progress-only store holds %d runs, want %d", n, maxRuns)
	}
}

// TestProgressWithoutRunIDIgnored pins that progress is run-scoped: an
// event with an empty run id creates no /runs entry.
func TestProgressWithoutRunIDIgnored(t *testing.T) {
	s := New()
	s.Sink().Emit(obs.Event{Kind: obs.KindProgress, Name: "campaign/simulate", Done: 1, Total: 2, Start: time.Now()})
	var rr runsResponse
	if code := getJSON(t, s.Handler(), "/runs", &rr); code != http.StatusOK {
		t.Fatalf("/runs status = %d", code)
	}
	if len(rr.Runs) != 0 {
		t.Errorf("progress without a run id created runs: %+v", rr.Runs)
	}
}

// TestEvictedRunEndpoints404 pins the HTTP contract at the retention
// boundary: once a run ages out of the bounded store, its endpoints
// answer 404 — never a panic, never a stale curve from the previous
// occupant of the slot.
func TestEvictedRunEndpoints404(t *testing.T) {
	s := New()
	now := time.Now()
	emitRun := func(run string) {
		s.Sink().Emit(obs.Event{Kind: obs.KindRunStart, Run: run, Name: "campaign/simulate", Total: 1, Start: now})
		s.Sink().Emit(obs.Event{Kind: obs.KindFault, Run: run, Name: "campaign/simulate",
			Fault: &obs.FaultOutcome{Index: 0, Detected: true, DivStep: 0}, Start: now})
		s.Sink().Emit(obs.Event{Kind: obs.KindRunEnd, Run: run, Done: 1, Total: 1, Start: now})
	}
	victim := "evictee-0000"
	emitRun(victim)
	// While still resident, the run serves its curve.
	var curve ledger.Curve
	if code := getJSON(t, s.Handler(), "/runs/"+victim+"/coverage", &curve); code != http.StatusOK {
		t.Fatalf("resident run coverage status = %d", code)
	}
	if curve.Detected != 1 {
		t.Fatalf("resident curve = %+v, want 1 detection", curve)
	}
	// Push the store past its cap so the victim ages out.
	for i := 0; i < maxRuns; i++ {
		emitRun(fmt.Sprintf("filler-%04d", i))
	}
	if _, ok := s.Sink().Run(victim); ok {
		t.Fatal("victim run still resident after overflow; eviction broken")
	}
	for _, path := range []string{"/runs/" + victim + "/coverage", "/runs/" + victim + "/events"} {
		if code := getJSON(t, s.Handler(), path, nil); code != http.StatusNotFound {
			t.Errorf("GET %s = %d after eviction, want 404", path, code)
		}
	}
	// The slot's new occupants still serve theirs.
	if code := getJSON(t, s.Handler(), "/runs/filler-0000/coverage", &curve); code != http.StatusOK {
		t.Errorf("surviving run coverage status = %d", code)
	}
}

// TestRehydrateFromLedger pins the restart-survival acceptance
// criterion: journals written by one process (including one whose
// writer died mid-line) rehydrate into a fresh sink's /runs history.
func TestRehydrateFromLedger(t *testing.T) {
	dir := t.TempDir()
	l, err := ledger.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UTC().Truncate(time.Second)
	doneRun := obs.NewRunID("campaign/simulate")
	l.Emit(obs.Event{Kind: obs.KindRunStart, Run: doneRun, Name: "campaign/simulate", Total: 3,
		Attrs: map[string]any{"steps": 8}, Start: now})
	for i := 0; i < 3; i++ {
		l.Emit(obs.Event{Kind: obs.KindFault, Run: doneRun, Name: "campaign/simulate",
			Fault: &obs.FaultOutcome{Index: i, Kind: "neuron-dead", Detected: i < 2, DivStep: i*2 - 1, SimSteps: i * 2}, Start: now})
	}
	l.Emit(obs.Event{Kind: obs.KindRunEnd, Run: doneRun, Name: "campaign/simulate", Done: 3, Total: 3, Start: now})
	// A second run whose process was killed before run_end.
	tornRun := obs.NewRunID("generate")
	l.Emit(obs.Event{Kind: obs.KindRunStart, Run: tornRun, Name: "generate", Total: 40, Start: now})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	s := New()
	if err := s.Sink().Rehydrate(dir); err != nil {
		t.Fatal(err)
	}
	var rr runsResponse
	if code := getJSON(t, s.Handler(), "/runs", &rr); code != http.StatusOK {
		t.Fatalf("/runs status = %d", code)
	}
	if len(rr.Runs) != 2 {
		t.Fatalf("rehydrated %d runs, want 2: %+v", len(rr.Runs), rr.Runs)
	}
	byID := map[string]RunProgress{}
	for _, r := range rr.Runs {
		if !r.Rehydrated {
			t.Errorf("run %s not marked rehydrated", r.ID)
		}
		byID[r.ID] = r
	}
	done := byID[doneRun]
	if !done.Terminal || done.Done != 3 || done.Total != 3 || done.Detected != 2 {
		t.Errorf("completed run rehydrated wrong: %+v", done)
	}
	if torn := byID[tornRun]; torn.Terminal {
		t.Errorf("interrupted run must not rehydrate as terminal: %+v", torn)
	}

	var curve ledger.Curve
	if code := getJSON(t, s.Handler(), "/runs/"+doneRun+"/coverage", &curve); code != http.StatusOK {
		t.Fatalf("/runs/%s/coverage status = %d", doneRun, code)
	}
	if curve.Detected != 2 || curve.Total != 3 || curve.Steps != 8 {
		t.Errorf("rehydrated curve = %+v, want 2/3 detected over 8 steps", curve)
	}
	if last := curve.Points[len(curve.Points)-1]; last.Detected != 2 {
		t.Errorf("rehydrated curve endpoint = %d, want 2", last.Detected)
	}

	// Rehydration is idempotent and never clobbers tracked runs.
	if err := s.Sink().Rehydrate(dir); err != nil {
		t.Fatal(err)
	}
	if n := len(s.Sink().Runs()); n != 2 {
		t.Errorf("second rehydrate grew the store to %d runs", n)
	}
}
