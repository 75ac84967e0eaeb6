package obs

import (
	"sync"
	"sync/atomic"
)

// Counter is a lock-free named metric with monotonic-sum semantics. Add
// is a single atomic operation, safe from any number of goroutines. Hot
// paths guard updates behind On() so the disabled layer costs one
// branch, never an atomic write:
//
//	if obs.On() {
//		layerStepCounter.Add(int64(n))
//	}
//
// Counter names follow the subsystem_noun_unit convention enforced by
// the metricname lint analyzer (lowercase, underscore-separated, at
// least two segments).
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
//
//snn:hotpath
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Set stores an absolute value. Prefer Gauge for level-style metrics;
// Set on a Counter exists for registry reset and test seeding.
func (c *Counter) Set(n int64) { c.v.Store(n) }

// Value returns the current value.
//
//snn:hotpath
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a lock-free named level metric: a value that goes up and
// down (the pool's last utilization). The zero value is unusable;
// obtain gauges from NewGauge. All methods are single atomic
// operations.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge's absolute value.
//
//snn:hotpath
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// registry is the global name → metric table for counters and gauges.
// Registration happens at package init time, never on hot paths, so a
// plain mutex-protected map set is enough; reads and writes of the
// metrics themselves stay lock-free through the returned handles.
var registry struct {
	mu sync.Mutex
	c  map[string]*Counter
	g  map[string]*Gauge
}

// NewCounter registers (or retrieves) the counter with the given name.
// It is idempotent: every caller asking for the same name shares one
// counter, so packages can hold handles from var initializers without
// coordinating.
func NewCounter(name string) *Counter {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.c == nil {
		registry.c = make(map[string]*Counter)
	}
	if c, ok := registry.c[name]; ok {
		return c
	}
	c := &Counter{}
	registry.c[name] = c
	return c
}

// NewGauge registers (or retrieves) the gauge with the given name.
// Idempotent like NewCounter; counters and gauges live in separate
// namespaces within the registry.
func NewGauge(name string) *Gauge {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.g == nil {
		registry.g = make(map[string]*Gauge)
	}
	if g, ok := registry.g[name]; ok {
		return g
	}
	g := &Gauge{}
	registry.g[name] = g
	return g
}

// Snapshot returns a copy of every registered counter's current value.
//
// Consistency contract: the snapshot is taken under the registry lock,
// reading each counter exactly once. Because
// ResetCounters holds the same lock, a snapshot can never observe a
// half-reset registry — it sees every counter's value either entirely
// before or entirely after any concurrent reset. Concurrent Add calls
// are lock-free, so the snapshot is per-counter atomic (no torn
// values) but not a cross-counter linearization point: an Add landing
// while the snapshot runs may be included for one counter and not
// another. That is the strongest guarantee available without stopping
// the hot paths, and it is exactly what the trace artifacts need.
func Snapshot() map[string]int64 {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	out := make(map[string]int64, len(registry.c))
	for name, c := range registry.c {
		out[name] = c.Value()
	}
	return out
}

// ResetCounters zeroes every registered counter and gauge (handles stay
// valid). Tests and CLI teardown use it to keep runs hermetic. It holds
// the registry lock for the duration, so it is serialized against
// Snapshot (see Snapshot's consistency contract).
func ResetCounters() {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, c := range registry.c {
		c.Set(0)
	}
	for _, g := range registry.g {
		g.Set(0)
	}
}
