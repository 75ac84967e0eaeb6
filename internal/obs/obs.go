// Package obs is the repo's stdlib-only observability layer: hierarchical
// wall-clock spans, lock-free named counters, and pluggable event sinks
// (a JSONL trace writer, an in-memory recorder for tests, and a
// human-readable end-of-run tree summary), plus the leveled Logger and
// the pprof phase labels that the CLI bundle (package telemetry) wires
// to every command's flags.
//
// The layer is disabled by default and must stay invisible when off: the
// paper's headline claim is a cost model, so the instrumented hot paths
// (snn simulation, fault campaigns, the generation loop) guard every
// probe behind the single-branch On() check and the golden bit-identity
// suites run with the layer dark. Enable() flips one atomic; sinks are
// registered with SetSinks/AddSink and receive completed-span and
// counter-snapshot events, plus run-scoped lifecycle and progress events
// when run events are on (SetRunEvents).
//
// Span taxonomy, counter names and the overhead-measurement protocol are
// documented in DESIGN.md §6.
package obs

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// enabled is the global switch. All instrumentation call sites check
// On() first, so a disabled build pays one atomic load and one branch.
var enabled atomic.Bool

// Enable turns the observability layer on. Instrumented code starts
// emitting spans to the registered sinks and bumping counters.
func Enable() { enabled.Store(true) }

// Disable turns the layer off again. Sinks and counters are left as they
// are; see SetSinks and ResetCounters for cleanup.
func Disable() { enabled.Store(false) }

// On reports whether the layer is enabled — the hot-path guard.
func On() bool { return enabled.Load() }

// runEvents is the flight-recorder switch layered on top of the main
// enable gate: per-run lifecycle events (run_start / fault / run_end)
// and run-scoped progress are only emitted when both are on, so a plain
// -trace run records spans and counters only, and the fault campaigns
// pay per-fault event costs only when a ledger or the telemetry server
// actually consumes them.
var runEvents atomic.Bool

// SetRunEvents toggles per-run flight-recorder events (the -ledger and
// -serve paths turn them on; CLI teardown restores the dark default).
func SetRunEvents(on bool) { runEvents.Store(on) }

// RunEventsOn reports whether per-run flight-recorder events should be
// emitted: the layer is enabled and a run-event consumer is registered.
func RunEventsOn() bool { return enabled.Load() && runEvents.Load() }

// runSeq allocates process-unique run sequence numbers.
var runSeq atomic.Uint64

// NewRunID mints a unique, filesystem-safe run identifier for the named
// activity (e.g. "campaign/simulate"): the slugged phase, a UTC
// timestamp, the process id and a process-local sequence number. The
// timestamp+pid pair keeps ids from different process lifetimes (and
// thus ledger journal files) from colliding, and makes rehydrated run
// histories sort naturally by start time.
func NewRunID(phase string) string {
	slug := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			return r
		case r >= 'A' && r <= 'Z':
			return r + ('a' - 'A')
		default:
			return '-'
		}
	}, phase)
	return fmt.Sprintf("%s-%s-%d-%d",
		slug, time.Now().UTC().Format("20060102t150405"), os.Getpid(), runSeq.Add(1))
}

// spanIDs allocates process-unique span identifiers.
var spanIDs atomic.Uint64

// spanKey carries the current span through a context for parenting.
type spanKey struct{}

// Span is one timed region of a run. Spans nest through contexts: a span
// started from a context that carries another span records it as its
// parent, which works across goroutines because contexts are immutable.
// A Span belongs to the goroutine that started it until End; the nil
// Span (returned when the layer is off) is a valid no-op receiver for
// every method.
type Span struct {
	name   string
	id     uint64
	parent uint64
	start  time.Time // wall clock + monotonic (time.Now semantics)
	attrs  map[string]any
	// labelRestore is the pre-span label context when pprof profile
	// labels are on (see profile.go); End reverts the goroutine to it.
	labelRestore context.Context
}

// Start begins a span named name under the span carried by ctx, if any,
// and returns a derived context carrying the new span. When the layer is
// disabled it returns ctx unchanged and a nil span whose methods all
// no-op, so call sites need no second guard.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	if !On() {
		return ctx, nil
	}
	sp := &Span{name: name, id: spanIDs.Add(1), start: time.Now()}
	if parent, ok := ctx.Value(spanKey{}).(*Span); ok && parent != nil {
		sp.parent = parent.id
	}
	ctx = context.WithValue(ctx, spanKey{}, sp)
	if ProfileLabelsOn() {
		ctx = attachPhaseLabel(ctx, sp)
	}
	return ctx, sp
}

// SetAttr attaches a key/value attribute to the span; values should be
// JSON-encodable (strings, numbers, bools). Attributes must be set by
// the owning goroutine before End.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]any, 4)
	}
	s.attrs[key] = value
}

// End completes the span and emits it to the registered sinks. Duration
// is measured on the monotonic clock; the start timestamp is wall-clock.
// End on a nil span is a no-op, and calling it more than once emits the
// span more than once (call sites pair every Start with exactly one End;
// the spanend lint analyzer enforces the pairing statically).
func (s *Span) End() {
	if s == nil {
		return
	}
	restorePhaseLabel(s)
	Emit(Event{
		Kind:   KindSpan,
		Name:   s.name,
		ID:     s.id,
		Parent: s.parent,
		Start:  s.start,
		DurUS:  time.Since(s.start).Microseconds(),
		Attrs:  s.attrs,
	})
}

// Name returns the span name ("" for the nil span).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// EventKind discriminates the event stream.
type EventKind string

const (
	// KindSpan is a completed span (emitted at End).
	KindSpan EventKind = "span"
	// KindProgress is a run-scoped progress update: Run carries the run
	// id and Done/Total the work units completed so far.
	KindProgress EventKind = "progress"
	// KindCounters is a snapshot of every registered counter.
	KindCounters EventKind = "counters"
	// KindRunStart opens one flight-recorder run (a fault campaign or a
	// generation loop); Run carries the run id, Name the phase, Total the
	// run's work-unit count and Attrs the run metadata (stimulus steps,
	// layer count, …).
	KindRunStart EventKind = "run_start"
	// KindFault is one fault's campaign outcome (detection flag,
	// first-divergence timestep, simulated layer-steps); the Fault field
	// carries the payload.
	KindFault EventKind = "fault"
	// KindRunEnd closes a flight-recorder run with its final tallies.
	KindRunEnd EventKind = "run_end"
)

// FaultOutcome is the per-fault payload of a KindFault event: everything
// the coverage-over-time curve and the detection-latency histograms
// need, at per-fault (never per-timestep) granularity.
type FaultOutcome struct {
	// Index is the fault's position in the campaign's fault list.
	Index int `json:"index"`
	// Kind is the fault kind string (e.g. "neuron-dead").
	Kind string `json:"kind"`
	// Layer is the fault site — the first layer the fault can perturb.
	Layer int `json:"layer"`
	// Detected reports the campaign's detection (or criticality) flag.
	Detected bool `json:"detected,omitempty"`
	// DivStep is the first stimulus timestep whose output diverged from
	// the golden response, or -1 when undetected or unknown (criticality
	// campaigns do not track divergence steps).
	DivStep int `json:"div_step"`
	// SimSteps is the number of stimulus timesteps simulated for this
	// fault (the early-exit point of the incremental campaign).
	SimSteps int `json:"sim_steps,omitempty"`
	// LayerSteps is the number of (layer, timestep) units simulated.
	LayerSteps int `json:"layer_steps,omitempty"`
}

// Event is the unit every sink consumes. Exactly which fields are set
// depends on Kind; the zero values are omitted from JSONL output.
type Event struct {
	Kind   EventKind `json:"kind"`
	Name   string    `json:"name,omitempty"`
	ID     uint64    `json:"id,omitempty"`
	Parent uint64    `json:"parent,omitempty"`
	// Run correlates flight-recorder events (run_start/fault/run_end and
	// progress) with one run; empty for spans and counter snapshots.
	Run string `json:"run,omitempty"`
	// Start is the event's wall-clock timestamp (a span's start time).
	Start time.Time `json:"start"`
	// DurUS is the span duration in microseconds (monotonic clock).
	DurUS int64 `json:"dur_us,omitempty"`
	// Done/Total carry progress updates.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// Attrs are span attributes (and run_start/run_end metadata).
	Attrs map[string]any `json:"attrs,omitempty"`
	// Counters is the snapshot payload of a KindCounters event.
	Counters map[string]int64 `json:"counters,omitempty"`
	// Fault is the payload of a KindFault event.
	Fault *FaultOutcome `json:"fault,omitempty"`
}

// Sink consumes observability events. Emit may be called from multiple
// goroutines at once; implementations must be safe for concurrent use.
type Sink interface {
	Emit(Event)
}

var (
	sinkMu sync.RWMutex
	sinks  []Sink
)

// SetSinks replaces the registered sink set (nil/empty clears it).
func SetSinks(s ...Sink) {
	sinkMu.Lock()
	sinks = append([]Sink(nil), s...)
	sinkMu.Unlock()
}

// AddSink appends one sink to the registered set.
func AddSink(s Sink) {
	sinkMu.Lock()
	sinks = append(sinks, s)
	sinkMu.Unlock()
}

// Emit fans an event out to every registered sink. It is a no-op when
// the layer is disabled, so instrumentation may call it unguarded on
// cold paths.
func Emit(e Event) {
	if !On() {
		return
	}
	sinkMu.RLock()
	for _, s := range sinks {
		s.Emit(e)
	}
	sinkMu.RUnlock()
}

// ProgressRun emits a KindProgress event reporting done of total work
// units of a flight-recorder run. No-op unless run events are on, and for
// an empty run id: progress is always run-scoped.
func ProgressRun(run, name string, done, total int) {
	if run == "" || !RunEventsOn() {
		return
	}
	Emit(Event{Kind: KindProgress, Name: name, Run: run, Done: done, Total: total, Start: time.Now()})
}

// EmitRunStart opens a flight-recorder run. No-op unless run events are
// on (RunEventsOn), so instrumented call sites stay dark by default.
func EmitRunStart(run, name string, total int, attrs map[string]any) {
	if !RunEventsOn() {
		return
	}
	Emit(Event{Kind: KindRunStart, Name: name, Run: run, Total: total, Attrs: attrs, Start: time.Now()})
}

// EmitFault records one fault's campaign outcome against a run. No-op
// unless run events are on. Called at per-fault granularity only —
// never from //snn:hotpath timestep loops.
func EmitFault(run, name string, f FaultOutcome) {
	if !RunEventsOn() {
		return
	}
	out := f
	Emit(Event{Kind: KindFault, Name: name, Run: run, Fault: &out, Start: time.Now()})
}

// EmitRunEnd closes a flight-recorder run with its final tallies. No-op
// unless run events are on.
func EmitRunEnd(run, name string, done, total int, attrs map[string]any) {
	if !RunEventsOn() {
		return
	}
	Emit(Event{Kind: KindRunEnd, Name: name, Run: run, Done: done, Total: total, Attrs: attrs, Start: time.Now()})
}

// EmitCounterSnapshot emits a KindCounters event holding the current
// value of every registered counter; CLIs emit one right before closing
// their trace so the JSONL artifact is self-contained.
func EmitCounterSnapshot() {
	Emit(Event{Kind: KindCounters, Start: time.Now(), Counters: Snapshot()})
}
