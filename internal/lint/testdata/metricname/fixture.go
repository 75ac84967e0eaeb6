// Golden fixture for the metricname analyzer: obs metric registrations
// must use constant, snake_case subsystem_noun_unit names with the
// kind's unit suffix — _total for counters, neither _total nor _seconds
// for gauges.
package metricnamefix

import "github.com/repro/snntest/internal/obs"

const constName = "fixture_events_total"

var (
	okCounter      = obs.NewCounter("fixture_events_total")
	okCounterConst = obs.NewCounter(constName)
	okGauge        = obs.NewGauge("fixture_queue_depth")

	// The PR 9 flight-recorder names are part of the conforming corpus:
	// any rename that breaks the convention fails here first.
	okLedgerRuns    = obs.NewCounter("ledger_runs_total")
	okLedgerEntries = obs.NewCounter("ledger_entries_total")
	okLedgerErrors  = obs.NewCounter("ledger_write_errors_total")
	okRunsTracked   = obs.NewGauge("telemetry_runs_tracked")

	// The PR 10 runtime-telemetry and worker-pool names: runtime gauges
	// are levels, so counts end _count (not the counter suffix _total),
	// and the one true counter in the set keeps _total.
	okRuntimeGoroutines = obs.NewGauge("runtime_goroutines_count")
	okRuntimeHeapLive   = obs.NewGauge("runtime_heap_live_bytes")
	okRuntimeGCCycles   = obs.NewGauge("runtime_gc_cycles_count")
	okRuntimeGCPause    = obs.NewGauge("runtime_gc_pause_p50_micros")
	okRuntimeSchedLat   = obs.NewGauge("runtime_sched_latency_p99_micros")
	okWorkerPool        = obs.NewGauge("worker_pool_size_workers")
	okWorkerUtil        = obs.NewGauge("worker_utilization_percent")
	okWorkerBusy        = obs.NewCounter("worker_busy_micros_total")
	okRestartQueue      = obs.NewGauge("core_restart_queue_depth")
	okTornLines         = obs.NewCounter("ledger_torn_lines_total")
	okStallSnapshots    = obs.NewCounter("telemetry_stall_snapshots_total")

	badShapeCamel  = obs.NewCounter("fixtureEventsTotal")   // want "not subsystem_noun_unit"
	badShapeDotted = obs.NewCounter("fixture.events_total") // want "not subsystem_noun_unit"
	badShapeSingle = obs.NewCounter("fixture")              // want "not subsystem_noun_unit"
	badShapeUpper  = obs.NewGauge("Fixture_queue_depth")    // want "not subsystem_noun_unit"
	badCounterUnit = obs.NewCounter("fixture_events")       // want "must end in _total"
	badGaugeTotal  = obs.NewGauge("fixture_queue_total")    // want "must not use the counter/histogram unit suffixes"
	badGaugeSec    = obs.NewGauge("fixture_wait_seconds")   // want "must not use the counter/histogram unit suffixes"
)

func dynamic(prefix string) *obs.Counter {
	return obs.NewCounter(prefix + "_events_total") // want "compile-time string constant"
}
