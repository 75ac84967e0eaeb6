package ledger

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/repro/snntest/internal/obs"
)

// evt builds one run event at a fixed timestamp offset.
func evt(kind obs.EventKind, run, name string, mut func(*obs.Event)) obs.Event {
	e := obs.Event{
		Kind:  kind,
		Run:   run,
		Name:  name,
		Start: time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC),
	}
	if mut != nil {
		mut(&e)
	}
	return e
}

// campaignEvents synthesizes a small simulate campaign's event stream:
// 6 faults over a 10-step stimulus, 4 detected (steps 2, 2, 5, and one
// unknown-step detection), 2 undetected.
func campaignEvents(run string) []obs.Event {
	outcomes := []obs.FaultOutcome{
		{Index: 0, Kind: "neuron-dead", Layer: 0, Detected: true, DivStep: 2, SimSteps: 3, LayerSteps: 6},
		{Index: 1, Kind: "neuron-dead", Layer: 1, Detected: true, DivStep: 2, SimSteps: 3, LayerSteps: 3},
		{Index: 2, Kind: "synapse-stuck", Layer: 0, Detected: true, DivStep: 5, SimSteps: 6, LayerSteps: 12},
		{Index: 3, Kind: "synapse-stuck", Layer: 1, Detected: false, DivStep: -1, SimSteps: 10, LayerSteps: 10},
		{Index: 4, Kind: "neuron-saturated", Layer: 0, Detected: true, DivStep: -1, LayerSteps: 20},
		{Index: 5, Kind: "neuron-dead", Layer: 1, Detected: false, DivStep: -1, SimSteps: 10, LayerSteps: 10},
	}
	events := []obs.Event{
		evt(obs.KindRunStart, run, "campaign/simulate", func(e *obs.Event) {
			e.Total = len(outcomes)
			e.Attrs = map[string]any{"steps": 10, "layers": 2}
		}),
	}
	for i := range outcomes {
		f := outcomes[i]
		events = append(events, evt(obs.KindFault, run, "campaign/simulate", func(e *obs.Event) {
			e.Fault = &f
		}))
	}
	events = append(events, evt(obs.KindRunEnd, run, "campaign/simulate", func(e *obs.Event) {
		e.Done, e.Total = len(outcomes), len(outcomes)
	}))
	return events
}

// assertMonotone fails unless the curve's points are strictly
// increasing in step and nondecreasing in detections/coverage.
func assertMonotone(t *testing.T, c Curve) {
	t.Helper()
	for i := 1; i < len(c.Points); i++ {
		prev, cur := c.Points[i-1], c.Points[i]
		if cur.Step <= prev.Step {
			t.Errorf("points[%d].Step %d not increasing after %d", i, cur.Step, prev.Step)
		}
		if cur.Detected < prev.Detected || cur.Coverage < prev.Coverage {
			t.Errorf("curve not monotone at point %d: %+v after %+v", i, cur, prev)
		}
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	run := obs.NewRunID("campaign/simulate")
	for _, e := range campaignEvents(run) {
		l.Emit(e)
	}
	// Non-run events and run events without a run id must not journal.
	l.Emit(obs.Event{Kind: obs.KindSpan, Name: "noise"})
	l.Emit(obs.Event{Kind: obs.KindFault, Name: "no-run-id"})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	runs, err := List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0] != run {
		t.Fatalf("List = %v, want [%s]", runs, run)
	}
	tornBefore := obsLedgerTornLines.Value()
	entries, err := ReadRun(dir, run)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 8 {
		t.Fatalf("got %d entries, want 8 (start + 6 faults + end)", len(entries))
	}
	if got := obsLedgerTornLines.Value(); got != tornBefore {
		t.Errorf("clean journal bumped ledger_torn_lines_total by %d", got-tornBefore)
	}
	if entries[0].Kind != "run_start" || entries[7].Kind != "run_end" {
		t.Fatalf("lifecycle entries out of order: first %q last %q", entries[0].Kind, entries[7].Kind)
	}

	c := foldCurve(run, entries)
	if c.Run != run || c.Phase != "campaign/simulate" || !c.Terminal {
		t.Errorf("curve header wrong: %+v", c)
	}
	if c.Total != 6 || c.Done != 6 || c.Detected != 4 {
		t.Errorf("tallies wrong: total %d done %d detected %d", c.Total, c.Done, c.Detected)
	}
	if c.Steps != 10 {
		t.Errorf("steps not recovered from run_start attrs: %d", c.Steps)
	}
	assertMonotone(t, c)
	// The last curve point must reconcile exactly with detected/total —
	// including the unknown-step (classify-style) detection.
	last := c.Points[len(c.Points)-1]
	if last.Detected != c.Detected {
		t.Errorf("last point detections %d != final detected %d", last.Detected, c.Detected)
	}
	if want := float64(c.Detected) / float64(c.Total); last.Coverage != want {
		t.Errorf("last point coverage %v != detected/total %v", last.Coverage, want)
	}
	// Expected shape: detections at steps 2 (2 faults), 5 (1), and the
	// unknown-step one on the final step 9.
	if len(c.Points) != 3 || c.Points[0].Step != 2 || c.Points[0].Detected != 2 ||
		c.Points[1].Step != 5 || c.Points[1].Detected != 3 ||
		c.Points[2].Step != 9 || c.Points[2].Detected != 4 {
		t.Errorf("unexpected curve points: %+v", c.Points)
	}

	// Latency groups: layer 0 has steps {2,5}, layer 1 has {2}; kinds
	// split as neuron-dead {2,2} and synapse-stuck {5}. Unknown-step
	// detections carry no latency sample.
	if g := c.LatencyByLayer["0"]; g == nil || g.Count != 2 || g.MinStep != 2 || g.MaxStep != 5 {
		t.Errorf("layer 0 latency wrong: %+v", g)
	}
	if g := c.LatencyByKind["neuron-dead"]; g == nil || g.Count != 2 || g.MeanStep != 2 {
		t.Errorf("neuron-dead latency wrong: %+v", g)
	}
	if c.LayerSteps != 61 {
		t.Errorf("layer steps %d, want 61", c.LayerSteps)
	}
	if c.LayerStepsByLayer["0"] != 38 || c.LayerStepsByLayer["1"] != 23 {
		t.Errorf("per-layer steps wrong: %+v", c.LayerStepsByLayer)
	}
}

// TestTruncatedJournal pins the SIGKILL-survival contract: a journal
// whose writer died mid-line rehydrates its longest valid prefix.
func TestTruncatedJournal(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	run := obs.NewRunID("campaign/simulate")
	events := campaignEvents(run)
	// Persist everything except run_end, then simulate a torn final
	// write: half a JSON object with no trailing newline.
	for _, e := range events[:len(events)-1] {
		l.Emit(e)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(journalPath(dir, run), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"run_end","run":"` + run + `","done":`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	before := obsLedgerTornLines.Value()
	entries, err := ReadRun(dir, run)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 7 {
		t.Fatalf("got %d entries, want 7 (torn run_end dropped)", len(entries))
	}
	if got := obsLedgerTornLines.Value() - before; got != 1 {
		t.Errorf("ledger_torn_lines_total advanced by %d, want 1", got)
	}
	c := foldCurve(run, entries)
	if c.Terminal {
		t.Error("torn journal must not read as terminal")
	}
	if c.Done != 6 || c.Detected != 4 {
		t.Errorf("prefix tallies wrong: done %d detected %d", c.Done, c.Detected)
	}
	assertMonotone(t, c)
}

// TestLedgerClosesRunFilesOnRunEnd: journals of completed runs release
// their descriptors eagerly.
func TestLedgerClosesRunFilesOnRunEnd(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	run := obs.NewRunID("generate")
	for _, e := range campaignEvents(run) {
		l.Emit(e)
	}
	l.mu.Lock()
	open := len(l.files)
	l.mu.Unlock()
	if open != 0 {
		t.Errorf("%d journals still open after run_end, want 0", open)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestListMissingDir: an unwritten ledger is an empty history.
func TestListMissingDir(t *testing.T) {
	runs, err := List(t.TempDir() + "/never-created")
	if err != nil || runs != nil {
		t.Fatalf("missing dir: runs=%v err=%v, want nil/nil", runs, err)
	}
}

// TestNewRunIDSafeAndUnique: ids must be filesystem-safe (the journal
// filename is <id>.jsonl) and unique across mints.
func TestNewRunIDSafeAndUnique(t *testing.T) {
	a := obs.NewRunID("campaign/simulate")
	b := obs.NewRunID("campaign/simulate")
	if a == b {
		t.Fatalf("consecutive run ids collide: %s", a)
	}
	if strings.ContainsAny(a, "/\\ :") {
		t.Errorf("run id not filesystem-safe: %q", a)
	}
	if !strings.HasPrefix(a, "campaign-simulate-") {
		t.Errorf("run id should carry the slugged phase: %q", a)
	}
}

// foldCurve folds a run's journal entries into its curve the way
// telemetry's Rehydrate does: a builder with no phase, which the
// run_start entry supplies.
func foldCurve(run string, entries []Entry) Curve {
	b := NewCurveBuilder(run, "")
	for _, e := range entries {
		b.Apply(e)
	}
	return b.Curve()
}

// FuzzReadRun feeds arbitrary bytes to the journal reader and folds
// whatever it decodes into a curve, the path telemetry's rehydration
// takes at -serve -ledger startup: neither step may panic, and the
// curve stays monotone. The committed corpus under testdata/fuzz holds a
// valid three-line journal, a fault with div_step = math.MaxInt64 and a
// torn final line. The fourth seed, a valid line followed by one past
// the reader's 1 MiB bound, is generated here rather than committed.
func FuzzReadRun(f *testing.F) {
	f.Add([]byte(`{"kind":"run_start","run":"r","total":1}` + "\n" + strings.Repeat("x", maxJournalLine+1) + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "r.jsonl"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		entries, err := ReadRun(dir, "r")
		if err != nil {
			t.Fatal(err)
		}
		assertMonotone(t, foldCurve("r", entries))
	})
}
