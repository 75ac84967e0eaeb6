package obs

import (
	"context"
	"sync"
	"testing"
)

// withObs enables the layer with a fresh recorder for the test and
// restores the dark default afterwards.
func withObs(t *testing.T) *Recorder {
	t.Helper()
	rec := &Recorder{}
	SetSinks(rec)
	ResetCounters()
	Enable()
	t.Cleanup(func() {
		Disable()
		SetSinks()
		ResetCounters()
	})
	return rec
}

func TestStartDisabledIsNoop(t *testing.T) {
	if On() {
		t.Fatal("layer enabled at test start")
	}
	ctx := context.Background()
	ctx2, sp := Start(ctx, "x")
	if sp != nil {
		t.Fatalf("disabled Start returned non-nil span %v", sp)
	}
	if ctx2 != ctx {
		t.Fatal("disabled Start derived a new context")
	}
	// Every method must be nil-safe.
	sp.SetAttr("k", 1)
	sp.End()
	if got := sp.Name(); got != "" {
		t.Fatalf("nil span name = %q", got)
	}
}

func TestSpanParenting(t *testing.T) {
	rec := withObs(t)
	ctx, root := Start(context.Background(), "root")
	cctx, child := Start(ctx, "child")
	_, grand := Start(cctx, "grand")
	grand.SetAttr("k", 42)
	grand.End()
	child.End()
	root.End()

	spans := rec.Spans()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	// Emission order is completion order: grand, child, root.
	g, c, r := spans[0], spans[1], spans[2]
	if g.Name != "grand" || c.Name != "child" || r.Name != "root" {
		t.Fatalf("unexpected emission order: %s, %s, %s", g.Name, c.Name, r.Name)
	}
	if r.Parent != 0 {
		t.Errorf("root has parent %d", r.Parent)
	}
	if c.Parent != r.ID {
		t.Errorf("child parent = %d, want root id %d", c.Parent, r.ID)
	}
	if g.Parent != c.ID {
		t.Errorf("grand parent = %d, want child id %d", g.Parent, c.ID)
	}
	if g.Attrs["k"] != 42 {
		t.Errorf("grand attrs = %v", g.Attrs)
	}
	if g.Start.IsZero() || g.DurUS < 0 {
		t.Errorf("bad timing: start %v dur %d", g.Start, g.DurUS)
	}
}

// TestSpanParentingAcrossGoroutines pins the goroutine-safety contract:
// worker spans started from a shared parent context all parent to the
// same span, concurrently.
func TestSpanParentingAcrossGoroutines(t *testing.T) {
	rec := withObs(t)
	ctx, parent := Start(context.Background(), "parent")
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, sp := Start(ctx, "worker")
			sp.End()
		}()
	}
	wg.Wait()
	parent.End()

	workers := rec.SpansNamed("worker")
	if len(workers) != n {
		t.Fatalf("recorded %d worker spans, want %d", len(workers), n)
	}
	parentID := rec.SpansNamed("parent")[0].ID
	ids := make(map[uint64]bool)
	for _, w := range workers {
		if w.Parent != parentID {
			t.Errorf("worker parent = %d, want %d", w.Parent, parentID)
		}
		if ids[w.ID] {
			t.Errorf("duplicate span id %d", w.ID)
		}
		ids[w.ID] = true
	}
}

func TestProgressAndCounterSnapshotEvents(t *testing.T) {
	rec := withObs(t)
	c := NewCounter("obs_test.progress_counter")
	c.Add(7)
	// Progress is run-scoped: dropped while run events are off, and
	// dropped without a run id.
	ProgressRun("campaign-run", "campaign", 1, 10)
	SetRunEvents(true)
	t.Cleanup(func() { SetRunEvents(false) })
	ProgressRun("", "campaign", 2, 10)
	ProgressRun("campaign-run", "campaign", 5, 10)
	EmitCounterSnapshot()
	events := rec.Events()
	if len(events) != 2 {
		t.Fatalf("recorded %d events, want 2", len(events))
	}
	p := events[0]
	if p.Kind != KindProgress || p.Run != "campaign-run" || p.Name != "campaign" || p.Done != 5 || p.Total != 10 {
		t.Errorf("bad progress event %+v", p)
	}
	s := events[1]
	if s.Kind != KindCounters || s.Counters["obs_test.progress_counter"] != 7 {
		t.Errorf("bad counters event %+v", s)
	}
}

func TestEmitDisabledReachesNoSink(t *testing.T) {
	rec := &Recorder{}
	SetSinks(rec)
	t.Cleanup(func() { SetSinks() })
	Emit(Event{Kind: KindSpan, Name: "dark"})
	ProgressRun("dark-run", "dark", 1, 2)
	if got := rec.Events(); len(got) != 0 {
		t.Fatalf("disabled layer emitted %d events", len(got))
	}
}
