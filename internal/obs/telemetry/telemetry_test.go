package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
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

// scrape fetches /metrics from the handler and returns the body.
func scrape(t *testing.T, h http.Handler) string {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("/metrics status = %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	return rr.Body.String()
}

// parseExposition validates the scrape as Prometheus text exposition
// format and returns every sample keyed by its full series (name plus
// label set). It fails the test on malformed lines, duplicate TYPE
// headers, duplicate series, or samples without a preceding TYPE header
// for their family.
func parseExposition(t *testing.T, body string) map[string]float64 {
	t.Helper()
	types := map[string]string{}
	samples := map[string]float64{}
	for ln, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" {
			t.Fatalf("line %d: empty line in exposition", ln+1)
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: malformed TYPE header %q", ln+1, line)
			}
			if kind != "counter" && kind != "gauge" && kind != "histogram" {
				t.Fatalf("line %d: unknown metric kind %q", ln+1, kind)
			}
			if _, dup := types[name]; dup {
				t.Fatalf("line %d: duplicate TYPE header for %s", ln+1, name)
			}
			types[name] = kind
			continue
		}
		series, valStr, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("line %d: malformed sample %q", ln+1, line)
		}
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: bad sample value %q: %v", ln+1, valStr, err)
		}
		if _, dup := samples[series]; dup {
			t.Fatalf("line %d: duplicate series %q", ln+1, series)
		}
		samples[series] = val
		family := series
		if i := strings.IndexByte(family, '{'); i >= 0 {
			family = family[:i]
		}
		kind, declared := types[family]
		if !declared {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				base := strings.TrimSuffix(family, suffix)
				if base != family && types[base] == "histogram" {
					kind, declared = "histogram", true
					break
				}
			}
		}
		if !declared {
			t.Fatalf("line %d: sample %q has no TYPE header", ln+1, series)
		}
		if kind != "histogram" && strings.ContainsAny(series, "{}") {
			t.Fatalf("line %d: unexpected labels on %s series %q", ln+1, kind, series)
		}
	}
	return samples
}

func TestMetricsExpositionValid(t *testing.T) {
	withObs(t)
	obs.NewCounter("telemetry_test_events_total").Add(7)
	obs.NewGauge("telemetry_test_queue_depth").Set(3)
	h := obs.NewTimingHistogram("telemetry_test_wait_seconds")
	for _, d := range []time.Duration{time.Microsecond, time.Millisecond, 50 * time.Millisecond, 2 * time.Second, time.Minute} {
		h.Observe(d)
	}

	samples := parseExposition(t, scrape(t, New().Handler()))

	if got := samples["telemetry_test_events_total"]; got != 7 {
		t.Errorf("counter sample = %v, want 7", got)
	}
	if got := samples["telemetry_test_queue_depth"]; got != 3 {
		t.Errorf("gauge sample = %v, want 3", got)
	}
	// Histogram buckets must be cumulative (non-decreasing in le order)
	// and reconcile with _count; the minute-long observation lands in
	// +Inf only.
	prev, bounds := 0.0, append([]float64{}, obs.TimingBounds[:]...)
	for _, b := range bounds {
		series := fmt.Sprintf("telemetry_test_wait_seconds_bucket{le=%q}", strconv.FormatFloat(b, 'g', -1, 64))
		v, ok := samples[series]
		if !ok {
			t.Fatalf("missing bucket %s", series)
		}
		if v < prev {
			t.Errorf("bucket %s = %v < previous %v (not cumulative)", series, v, prev)
		}
		prev = v
	}
	inf := samples[`telemetry_test_wait_seconds_bucket{le="+Inf"}`]
	if inf != 5 {
		t.Errorf("+Inf bucket = %v, want 5", inf)
	}
	if got := samples["telemetry_test_wait_seconds_count"]; got != inf {
		t.Errorf("_count = %v, want +Inf bucket %v", got, inf)
	}
	if got := samples["telemetry_test_wait_seconds_sum"]; got < 62 {
		t.Errorf("_sum = %v, want >= 62s of observations", got)
	}
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

	// The scraped campaign gauges must reconcile exactly with the final
	// CampaignResult — the acceptance contract for live fault coverage.
	critical := 0
	for _, c := range cls.Critical {
		if c {
			critical++
		}
	}
	mets := parseExposition(t, scrape(t, s.Handler()))
	for series, want := range map[string]float64{
		"fault_campaign_done_faults":     float64(len(faults)),
		"fault_campaign_total_faults":    float64(len(faults)),
		"fault_campaign_critical_faults": float64(critical),
		"fault_classified_total":         float64(len(faults)),
		"fault_critical_total":           float64(critical),
	} {
		if got := mets[series]; got != want {
			t.Errorf("scraped %s = %v, want %v", series, got, want)
		}
	}
	if got := mets["fault_simulation_seconds_count"]; got != float64(len(faults)) {
		t.Errorf("fault_simulation_seconds_count = %v, want %v", got, len(faults))
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

	mets := parseExposition(t, scrape(t, s.Handler()))
	if got, want := mets["fault_campaign_detected_faults"], float64(sim.NumDetected()); got != want {
		t.Errorf("fault_campaign_detected_faults = %v, want NumDetected %v", got, want)
	}
	if got, want := mets["fault_detected_total"], float64(sim.NumDetected()); got != want {
		t.Errorf("fault_detected_total = %v, want %v", got, want)
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

func TestPprofRoutesRegistered(t *testing.T) {
	h := New().Handler()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
		if rr.Code != http.StatusOK {
			t.Errorf("GET %s status = %d, want 200", path, rr.Code)
		}
	}
}

func TestServerLifecycle(t *testing.T) {
	s := New()
	rr := httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Errorf("pre-Start /readyz status = %d, want 503", rr.Code)
	}

	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s status = %d, want 200", path, resp.StatusCode)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	rr = httptest.NewRecorder()
	s.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Errorf("post-Shutdown /readyz status = %d, want 503", rr.Code)
	}
}
