package telemetry

import (
	"sync"
	"time"

	"github.com/repro/snntest/internal/obs"
	"github.com/repro/snntest/internal/obs/ledger"
)

// maxRuns bounds the retained run history; the oldest runs are evicted
// first so a long-lived server cannot grow without bound. Eviction
// drops a run's curve state and event ring along with it.
const maxRuns = 64

// maxRunEvents bounds the per-run journal tail kept for the
// /runs/{id}/events endpoint; older entries age out of memory (the
// on-disk ledger journal, when enabled, keeps the full history).
const maxRunEvents = 256

// RunProgress is the JSON shape of one tracked run as served by /runs
// and /runs/{id}. A "run" is one flight-recorder activity instance — a
// fault-simulation campaign, a classification campaign, or a generation
// loop — identified by the run id its events carry.
type RunProgress struct {
	ID    string `json:"id"`
	Phase string `json:"phase"` // the run's event name, e.g. "campaign/simulate"
	Done  int    `json:"done"`
	Total int    `json:"total"`
	// Percent is 100*Done/Total (0 when Total is 0).
	Percent float64 `json:"percent"`
	// Started/Updated are the first and latest progress event times.
	Started time.Time `json:"started"`
	Updated time.Time `json:"updated"`
	// ElapsedMS is Updated-Started; ETAMS extrapolates the remaining
	// wall-clock from the observed rate (-1 while unknown, 0 when done).
	ElapsedMS int64 `json:"elapsed_ms"`
	ETAMS     int64 `json:"eta_ms"`
	// Detected/CoveragePercent give live fault coverage for campaign
	// runs (detected-or-critical count so far and its percentage of the
	// faults completed); both are zero for non-campaign runs.
	Detected        int64   `json:"detected,omitempty"`
	CoveragePercent float64 `json:"coverage_percent,omitempty"`
	// Terminal marks a run that reached done == total.
	Terminal bool `json:"terminal"`
	// Rehydrated marks a run restored from a ledger journal written by
	// an earlier process rather than observed live.
	Rehydrated bool `json:"rehydrated,omitempty"`
}

// Sink tracks live run progress from the obs event stream. It
// implements obs.Sink; register it with obs.AddSink (the CLI's -serve
// path does this, with run events on) and every run-scoped progress and
// lifecycle event becomes queryable run state. Safe for concurrent Emit
// and snapshot use.
type Sink struct {
	mu   sync.Mutex
	runs []*runState
}

// runState is the mutable tracking record behind one RunProgress.
type runState struct {
	id         string
	phase      string
	done       int
	total      int
	started    time.Time
	updated    time.Time
	detected   int64
	terminal   bool
	rehydrated bool
	// curve folds this run's fault events into its coverage curve;
	// events is the bounded journal tail.
	curve  *ledger.CurveBuilder
	events []ledger.Entry
}

// NewSink returns an empty run tracker.
func NewSink() *Sink { return &Sink{} }

// Emit consumes one obs event. Progress and run-lifecycle events mutate
// the state of the run their id names; events without a run id, spans
// and counter snapshots among them, are ignored (counters reach the
// -trace snapshot instead).
func (s *Sink) Emit(e obs.Event) {
	if e.Run == "" {
		return
	}
	switch e.Kind {
	case obs.KindProgress:
		s.emitProgress(e)
	case obs.KindRunStart, obs.KindFault, obs.KindRunEnd:
		s.emitRunEvent(e)
	}
}

// emitProgress folds a progress update into its run. The done count
// never moves backwards: a campaign's fault events may already have
// advanced it past a progress report that was in flight on another
// worker.
func (s *Sink) emitProgress(e obs.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.byIDLocked(e.Run, e.Name, e.Start)
	r.done = max(r.done, e.Done)
	r.total = e.Total
	r.updated = e.Start
	r.detected = int64(r.curve.Detected())
	if r.total > 0 && r.done >= r.total {
		r.terminal = true
	}
}

// emitRunEvent folds a run-lifecycle event (run_start / fault /
// run_end) into its run's curve state and journal tail.
func (s *Sink) emitRunEvent(e obs.Event) {
	entry, ok := ledger.EntryFromEvent(e)
	if !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.byIDLocked(e.Run, e.Name, e.Start)
	r.curve.Apply(entry)
	r.appendEventLocked(entry)
	r.updated = e.Start
	r.detected = int64(r.curve.Detected())
	switch e.Kind {
	case obs.KindRunStart:
		r.total = e.Total
	case obs.KindFault:
		if d := r.curve.Done(); d > r.done {
			r.done = d
		}
	case obs.KindRunEnd:
		r.done, r.total, r.terminal = e.Done, e.Total, true
	}
}

// appendEventLocked pushes one entry onto the run's bounded tail.
func (r *runState) appendEventLocked(e ledger.Entry) {
	if len(r.events) >= maxRunEvents {
		copy(r.events, r.events[1:])
		r.events[len(r.events)-1] = e
		return
	}
	r.events = append(r.events, e)
}

// byIDLocked returns the run keyed by id, creating it when unseen
// (events may arrive in any order near eviction).
func (s *Sink) byIDLocked(id, phase string, start time.Time) *runState {
	for i := len(s.runs) - 1; i >= 0; i-- {
		if s.runs[i].id == id {
			return s.runs[i]
		}
	}
	r := &runState{id: id, phase: phase, started: start, curve: ledger.NewCurveBuilder(id, phase)}
	s.insertLocked(r)
	return r
}

// insertLocked appends a run and enforces the retention bound.
func (s *Sink) insertLocked(r *runState) {
	s.runs = append(s.runs, r)
	if len(s.runs) > maxRuns {
		s.runs = append(s.runs[:0:0], s.runs[len(s.runs)-maxRuns:]...)
	}
}

// Rehydrate restores run history from the ledger journals under dir,
// replaying each journal through the same curve fold the live event
// path uses. Runs already tracked (same id) are left untouched, so
// rehydrating is idempotent and never clobbers a live run. The
// retention bound applies as usual; with more journals than capacity
// the lexicographically-latest (≈ newest) runs win.
func (s *Sink) Rehydrate(dir string) error {
	ids, err := ledger.List(dir)
	if err != nil {
		return err
	}
	for _, id := range ids {
		entries, err := ledger.ReadRun(dir, id)
		if err != nil || len(entries) == 0 {
			// A vanished or fully-torn journal is not worth failing the
			// server over; skip it.
			continue
		}
		s.rehydrateRun(id, entries)
	}
	return nil
}

// rehydrateRun folds one journal into a tracked run.
func (s *Sink) rehydrateRun(id string, entries []ledger.Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.runs {
		if r.id == id {
			return
		}
	}
	r := &runState{id: id, rehydrated: true}
	b := ledger.NewCurveBuilder(id, "")
	for _, e := range entries {
		b.Apply(e)
		r.appendEventLocked(e)
		if r.phase == "" && e.Name != "" {
			r.phase = e.Name
		}
		if r.started.IsZero() || e.Time.Before(r.started) {
			r.started = e.Time
		}
		if e.Time.After(r.updated) {
			r.updated = e.Time
		}
		if e.Kind == string(obs.KindRunEnd) {
			r.terminal = true
		}
	}
	c := b.Curve()
	r.curve = b
	r.done, r.total, r.detected = c.Done, c.Total, int64(c.Detected)
	s.insertLocked(r)
}

// Runs returns a snapshot of every tracked run in start order.
func (s *Sink) Runs() []RunProgress {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]RunProgress, 0, len(s.runs))
	for _, r := range s.runs {
		out = append(out, r.progress())
	}
	return out
}

// Run returns the run with the given id, if tracked.
func (s *Sink) Run(id string) (RunProgress, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.runs {
		if r.id == id {
			return r.progress(), true
		}
	}
	return RunProgress{}, false
}

// Coverage returns the run's derived coverage curve, and false when the
// run is unknown.
func (s *Sink) Coverage(id string) (ledger.Curve, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.runs {
		if r.id == id {
			return r.curve.Curve(), true
		}
	}
	return ledger.Curve{}, false
}

// Events returns the run's retained journal tail (oldest first).
func (s *Sink) Events(id string) ([]ledger.Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.runs {
		if r.id == id {
			return append([]ledger.Entry(nil), r.events...), true
		}
	}
	return nil, false
}

// progress derives the served view from the tracking record. Callers
// hold the sink lock.
func (r *runState) progress() RunProgress {
	p := RunProgress{
		ID:         r.id,
		Phase:      r.phase,
		Done:       r.done,
		Total:      r.total,
		Started:    r.started,
		Updated:    r.updated,
		Detected:   r.detected,
		Terminal:   r.terminal,
		Rehydrated: r.rehydrated,
		ETAMS:      -1,
	}
	if r.total > 0 {
		p.Percent = 100 * float64(r.done) / float64(r.total)
	}
	if r.done > 0 {
		p.CoveragePercent = 100 * float64(r.detected) / float64(r.done)
	}
	elapsed := r.updated.Sub(r.started)
	if elapsed > 0 {
		p.ElapsedMS = elapsed.Milliseconds()
	}
	switch {
	case r.terminal:
		p.ETAMS = 0
	case r.done > 0 && elapsed > 0 && r.total > r.done:
		perItem := float64(elapsed) / float64(r.done)
		p.ETAMS = time.Duration(perItem * float64(r.total-r.done)).Milliseconds()
	}
	return p
}
