// Package ledger is the run flight recorder: a persistent, replayable
// journal of every generation run and fault campaign. Each run appends
// structured entries (run start/end, per-fault first-divergence
// timestep and detection classification, layer-step counts) to its own
// JSONL file under a ledger directory, from which the package derives
// the paper's core artifact — the coverage-over-time curve — plus
// detection-latency histograms per layer and per fault kind.
//
// The recorder is an obs.Sink fed by the KindRunStart / KindFault /
// KindRunEnd event stream, which only flows when run events are enabled
// (obs.SetRunEvents — the -ledger and -serve paths of telemetry.CLI).
// Entries are written as one Write syscall per line on an O_APPEND
// file, so a journal killed mid-run (SIGKILL) is at worst truncated in
// its final line; the reader tolerates that, which is what lets the
// telemetry server rehydrate run history across process restarts.
//
// Like the rest of the obs layer the ledger is disabled by default and
// must stay invisible when off: nothing here is called from
// //snn:hotpath code, and event granularity is per-fault, never
// per-timestep.
package ledger

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/repro/snntest/internal/obs"
)

// Ledger-layer counters: runs opened, entries appended, write failures
// (journals are best-effort — a full disk must not abort a campaign),
// and torn lines skipped on the read path (the trace a SIGKILL'd writer
// leaves; a nonzero count on a clean shutdown means something worse).
var (
	obsLedgerRuns        = obs.NewCounter("ledger_runs_total")
	obsLedgerEntries     = obs.NewCounter("ledger_entries_total")
	obsLedgerWriteErrors = obs.NewCounter("ledger_write_errors_total")
	obsLedgerTornLines   = obs.NewCounter("ledger_torn_lines_total")
)

// Entry is one persisted journal line. It is the durable subset of an
// obs run event: kind, run correlation, timestamp and the kind-specific
// payload (fault outcome or run metadata/tallies).
type Entry struct {
	// Kind is the event kind: "run_start", "fault" or "run_end".
	Kind string `json:"kind"`
	// Run is the flight-recorder run id the entry belongs to.
	Run string `json:"run"`
	// Name is the activity phase (e.g. "campaign/simulate").
	Name string `json:"name,omitempty"`
	// Time is the event's wall-clock timestamp.
	Time time.Time `json:"time"`
	// Done/Total carry run_end tallies (and run_start's planned total).
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// Attrs is the run metadata map (stimulus steps, layer count, …).
	Attrs map[string]any `json:"attrs,omitempty"`
	// Fault is the per-fault payload of a "fault" entry.
	Fault *obs.FaultOutcome `json:"fault,omitempty"`
}

// EntryFromEvent maps an obs run event onto its journal line, reporting
// whether the event is one the ledger persists at all (run lifecycle
// events carrying a run id). The telemetry sink shares it so the live
// /runs/{id}/events view and the on-disk journal agree line for line.
func EntryFromEvent(e obs.Event) (Entry, bool) {
	switch e.Kind {
	case obs.KindRunStart, obs.KindFault, obs.KindRunEnd:
	default:
		return Entry{}, false
	}
	if e.Run == "" {
		return Entry{}, false
	}
	return Entry{
		Kind:  string(e.Kind),
		Run:   e.Run,
		Name:  e.Name,
		Time:  e.Start,
		Done:  e.Done,
		Total: e.Total,
		Attrs: e.Attrs,
		Fault: e.Fault,
	}, true
}

// Ledger appends run events to per-run JSONL journal files under a
// directory. It implements obs.Sink; Emit is safe for concurrent use
// from campaign workers.
type Ledger struct {
	dir string

	mu    sync.Mutex
	files map[string]*os.File // open journals keyed by run id
	err   error               // first write error, surfaced at Close
}

// Open creates (if needed) the ledger directory and returns a recorder
// appending under it.
func Open(dir string) (*Ledger, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ledger: open %s: %w", dir, err)
	}
	return &Ledger{dir: dir, files: make(map[string]*os.File)}, nil
}

// Dir returns the ledger's root directory.
func (l *Ledger) Dir() string { return l.dir }

// journalPath is the journal file for one run id. Run ids minted by
// obs.NewRunID are filesystem-safe by construction.
func journalPath(dir, run string) string {
	return filepath.Join(dir, run+".jsonl")
}

// Emit persists one run event. Non-run events (spans, counters,
// progress) pass through untouched — the ledger records run lifecycle
// at per-fault granularity only. Write failures are recorded (counter +
// first error kept for Close) but never propagate: a full disk must not
// abort the campaign being recorded.
func (l *Ledger) Emit(e obs.Event) {
	entry, ok := EntryFromEvent(e)
	if !ok {
		return
	}
	line, err := json.Marshal(entry)
	if err != nil {
		l.noteErr(err)
		return
	}
	line = append(line, '\n')

	l.mu.Lock()
	defer l.mu.Unlock()
	f, ok := l.files[entry.Run]
	if !ok {
		f, err = os.OpenFile(journalPath(l.dir, entry.Run), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			l.noteErrLocked(err)
			return
		}
		l.files[entry.Run] = f
		obsLedgerRuns.Add(1)
	}
	// One Write call per line on an O_APPEND descriptor: a crash between
	// entries leaves at worst one truncated final line, which the reader
	// skips.
	if _, err := f.Write(line); err != nil {
		l.noteErrLocked(err)
		return
	}
	obsLedgerEntries.Add(1)
	if entry.Kind == string(obs.KindRunEnd) {
		// The run is over; release its descriptor eagerly so a long-lived
		// process (the campaign-as-a-service direction) cannot accumulate
		// open files across runs.
		if err := f.Close(); err != nil {
			l.noteErrLocked(err)
		}
		delete(l.files, entry.Run)
	}
}

// noteErr records a write-path error under the lock.
func (l *Ledger) noteErr(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.noteErrLocked(err)
}

// noteErrLocked records a write-path error; callers hold l.mu.
func (l *Ledger) noteErrLocked(err error) {
	obsLedgerWriteErrors.Add(1)
	if l.err == nil {
		l.err = fmt.Errorf("ledger: %w", err)
	}
}

// Close flushes and closes every still-open journal (runs interrupted
// before their run_end) and returns the first write error seen.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for run, f := range l.files {
		if err := f.Close(); err != nil {
			l.noteErrLocked(err)
		}
		delete(l.files, run)
	}
	return l.err
}
