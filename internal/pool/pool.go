// Package pool is the bounded worker pool shared by the generation
// engine's restarts and calibration candidates (internal/core) and the
// fault campaigns (internal/fault).
//
// Determinism never comes from the pool: it imposes no completion order,
// so every work item must write only to its own index-addressed slot and
// callers reduce the slots in index order afterwards.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/repro/snntest/internal/obs"
)

// Pool resource telemetry: total in-fn busy time as a counter, and
// utilization — busy time over workers × wall time — as a percentage
// gauge written when a multi-worker pool drains. A pool that is mostly
// idle is contended or starved, not compute-bound. Pools never overlap
// (generation phases and campaigns run one after another), so the gauge
// shows whichever pool ran last.
var (
	obsWorkerBusy = obs.NewCounter("worker_busy_micros_total")
	obsWorkerUtil = obs.NewGauge("worker_utilization_percent")
)

// Size resolves a requested worker count for n work items: ≤ 0 means
// GOMAXPROCS, and the result lies in [1, max(n, 1)].
func Size(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return max(1, min(w, n))
}

// Run calls fn(i) for every i in [0, n) on at most workers goroutines
// (≤ 0 means GOMAXPROCS) and returns once every call has returned.
func Run(workers, n int, fn func(i int)) {
	RunWith(workers, n, func() struct{} { return struct{}{} }, func(_ struct{}, i int) { fn(i) })
}

// RunWith is Run with per-worker state: newState is called once per
// worker, on that worker's goroutine, and its result is passed to every
// fn call the worker makes, so state such as a fault injector and its
// scratch buffers is confined to one goroutine.
//
// Work items are claimed through one atomic counter, in increasing index
// order, rather than sent over a channel. A single-worker pool is a plain
// loop on the caller's goroutine with no synchronization at all.
func RunWith[S any](workers, n int, newState func() S, fn func(s S, i int)) {
	if n <= 0 {
		return
	}
	workers = Size(workers, n)
	if workers == 1 {
		s := newState()
		for i := 0; i < n; i++ {
			fn(s, i)
		}
		return
	}
	on := obs.On()
	var poolStart time.Time
	var busyUS atomic.Int64
	if on {
		poolStart = time.Now()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := newState()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if on {
					t0 := time.Now()
					fn(s, i)
					busyUS.Add(time.Since(t0).Microseconds())
					continue
				}
				fn(s, i)
			}
		}()
	}
	wg.Wait()
	if on {
		busy := busyUS.Load()
		obsWorkerBusy.Add(busy)
		if capacity := time.Since(poolStart).Microseconds() * int64(workers); capacity > 0 {
			obsWorkerUtil.Set(busy * 100 / capacity)
		}
	}
}
