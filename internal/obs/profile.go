package obs

import (
	"context"
	"runtime/pprof"
	"sync/atomic"
)

// profileLabels is the CPU-attribution switch layered on top of the
// main enable gate, exactly like the run-events gate: when on, every
// span additionally tags its goroutine with a runtime/pprof `phase`
// label (and run-correlated code paths add a `run` label), so the CPU
// profile -profile-dir writes attributes its samples to the span
// taxonomy sample by sample.
//
// The gate exists because label maintenance, while cheap (one small
// allocation plus a goroutine-label store per span), is not free, and
// the repo's contract is that dark runs pay exactly one predicted
// branch per probe. telemetry.CLI turns it on for -profile-dir and
// restores the dark default on teardown.
var profileLabels atomic.Bool

// SetProfileLabels toggles pprof phase/run labelling of spans (the
// -profile-dir CLI path turns it on).
func SetProfileLabels(on bool) { profileLabels.Store(on) }

// ProfileLabelsOn reports whether spans should maintain pprof labels:
// the layer is enabled and a profile consumer asked for attribution.
func ProfileLabelsOn() bool { return enabled.Load() && profileLabels.Load() }

// attachPhaseLabel tags the calling goroutine (and the returned
// context) with the span's name as the pprof `phase` label. The
// pre-span context is kept on the span so End can restore the parent
// label set — labels nest with spans: a sample taken inside
// "generate/restart" carries phase=generate/restart, and after that
// span ends the goroutine reverts to the enclosing span's phase.
//
// Labels propagate two ways, both load-bearing for worker pools:
// through the returned context (obs.Start merges the parent's label
// set, so a span started on a worker goroutine from a labelled context
// inherits the full set), and through goroutine inheritance (a
// goroutine spawned while its parent holds labels starts with them, so
// campaign workers forked under the campaign span are attributed even
// before their first span).
func attachPhaseLabel(ctx context.Context, sp *Span) context.Context {
	sp.labelRestore = ctx
	lctx := pprof.WithLabels(ctx, pprof.Labels("phase", sp.name))
	pprof.SetGoroutineLabels(lctx)
	return lctx
}

// restorePhaseLabel reverts the goroutine to the label set it carried
// before the span started. No-op for spans that never attached labels
// (labelling disabled, or enabled mid-span).
func restorePhaseLabel(sp *Span) {
	if sp.labelRestore != nil {
		pprof.SetGoroutineLabels(sp.labelRestore)
	}
}

// WithRunLabel tags the calling goroutine (and the returned context)
// with a flight-recorder run id as the pprof `run` label, so one CPU
// profile covering several runs (a long-lived campaign service) can be
// sliced per run. It composes with the phase label — both survive on
// the samples — and is reverted together with the enclosing span's
// phase label at that span's End. No-op (returning ctx unchanged) when
// labelling is off or run is empty.
func WithRunLabel(ctx context.Context, run string) context.Context {
	if run == "" || !ProfileLabelsOn() {
		return ctx
	}
	lctx := pprof.WithLabels(ctx, pprof.Labels("run", run))
	pprof.SetGoroutineLabels(lctx)
	return lctx
}
