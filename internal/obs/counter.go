package obs

import (
	"sort"
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
// least two segments) so every name is a valid Prometheus metric name.
type Counter struct {
	name string
	v    atomic.Int64
}

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

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
// down (in-flight workers, current iteration, live coverage counts).
// The zero value is unusable; obtain gauges from NewGauge. All methods
// are single atomic operations.
type Gauge struct {
	name string
	v    atomic.Int64
}

// Name returns the gauge's registered name.
func (g *Gauge) Name() string { return g.name }

// Set stores the gauge's absolute value.
//
//snn:hotpath
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by delta (negative to decrease) and returns the
// new value, so inflight-style gauges can pair Add(1)/Add(-1).
//
//snn:hotpath
func (g *Gauge) Add(delta int64) int64 { return g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// registry is the global name → metric table for counters, gauges and
// timing histograms. Registration happens at package init time and from
// CLI setup, never on hot paths, so a plain mutex-protected map set is
// enough; reads and writes of the metrics themselves stay lock-free
// through the returned handles.
var registry struct {
	mu sync.Mutex
	c  map[string]*Counter
	g  map[string]*Gauge
	h  map[string]*TimingHistogram
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
	c := &Counter{name: name}
	registry.c[name] = c
	return c
}

// NewGauge registers (or retrieves) the gauge with the given name.
// Idempotent like NewCounter; counters and gauges live in separate
// namespaces within the registry, but sharing one name across kinds is
// a registration bug (the /metrics exposition would emit two series of
// different types under one name) — keep names globally unique.
func NewGauge(name string) *Gauge {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.g == nil {
		registry.g = make(map[string]*Gauge)
	}
	if g, ok := registry.g[name]; ok {
		return g
	}
	g := &Gauge{name: name}
	registry.g[name] = g
	return g
}

// Snapshot returns a copy of every registered counter's current value.
//
// Consistency contract: the snapshot is taken under the registry lock,
// reading each counter exactly once in sorted name order. Because
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
	for _, name := range sortedNamesLocked(registry.c) {
		out[name] = registry.c[name].Value()
	}
	return out
}

// MetricValue is one named metric reading, used by the ordered
// snapshot accessors.
type MetricValue struct {
	Name  string
	Value int64
}

// SnapshotOrdered returns every registered counter's value as a slice
// sorted by name — the deterministic accessor behind the /metrics
// exposition and the counter table. Same consistency contract as
// Snapshot.
func SnapshotOrdered() []MetricValue {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	return orderedValuesLocked(registry.c, (*Counter).Value)
}

// GaugeSnapshot returns every registered gauge's value sorted by name,
// under the same consistency contract as Snapshot.
func GaugeSnapshot() []MetricValue {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	return orderedValuesLocked(registry.g, (*Gauge).Value)
}

// orderedValuesLocked reads the metric map into a name-sorted slice.
// Callers hold registry.mu.
func orderedValuesLocked[M any](m map[string]*M, value func(*M) int64) []MetricValue {
	out := make([]MetricValue, 0, len(m))
	for _, name := range sortedNamesLocked(m) {
		out = append(out, MetricValue{Name: name, Value: value(m[name])})
	}
	return out
}

// sortedNamesLocked returns the map's keys sorted. Callers hold
// registry.mu.
func sortedNamesLocked[M any](m map[string]*M) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ResetCounters zeroes every registered metric — counters, gauges and
// timing histograms (handles stay valid). Tests and CLI teardown use it
// to keep runs hermetic. It holds the registry lock for the duration,
// so it is serialized against Snapshot and the other snapshot
// accessors (see Snapshot's consistency contract).
func ResetCounters() {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, c := range registry.c {
		c.Set(0)
	}
	for _, g := range registry.g {
		g.Set(0)
	}
	for _, h := range registry.h {
		h.reset()
	}
}
