package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"github.com/repro/snntest/internal/obs"
)

// spanStat aggregates the spans of one name.
type spanStat struct {
	count int
	total time.Duration
	self  time.Duration
}

func spanDur(e obs.Event) time.Duration { return time.Duration(e.DurUS) * time.Microsecond }

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the union of its children's intervals; children of one span may
// run in parallel, so their intervals can overlap.
func selfTimes(spans []obs.Event) map[string]*spanStat {
	children := make(map[uint64][]obs.Event)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*spanStat)
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		d := spanDur(s)
		st.count++
		st.total += d
		st.self += d - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent obs.Event, kids []obs.Event) time.Duration {
	type interval struct{ lo, hi time.Time }
	end := parent.Start.Add(spanDur(parent))
	ivs := make([]interval, 0, len(kids))
	for _, k := range kids {
		lo, hi := k.Start, k.Start.Add(spanDur(k))
		if lo.Before(parent.Start) {
			lo = parent.Start
		}
		if hi.After(end) {
			hi = end
		}
		if hi.After(lo) {
			ivs = append(ivs, interval{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
	var sum time.Duration
	var cur interval
	for i, iv := range ivs {
		switch {
		case i == 0:
			cur = iv
		case iv.lo.After(cur.hi):
			sum += cur.hi.Sub(cur.lo)
			cur = iv
		case iv.hi.After(cur.hi):
			cur.hi = iv.hi
		}
	}
	if len(ivs) > 0 {
		sum += cur.hi.Sub(cur.lo)
	}
	return sum
}

// addSpanMetrics adds the per-layer metrics read from the spans of one
// test generation: restart and stage-2 self time, calibration candidate
// time, and the restart pool's utilization over the iterations.
func addSpanMetrics(m metricSet, st map[string]*spanStat) {
	get := func(name string) spanStat {
		if s := st[name]; s != nil {
			return *s
		}
		return spanStat{}
	}
	restart, iteration := get("generate/restart"), get("generate/iteration")
	m.add("core.restart_self_s", "s", restart.self.Seconds())
	m.add("core.stage2_self_s", "s", get("generate/stage2").self.Seconds())
	m.add("core.calibrate_candidate_s", "s", get("generate/calibrate/candidate").total.Seconds())
	if iteration.total > 0 {
		m.add("core.restart_util_pct", "%", 100*restart.total.Seconds()/(iteration.total.Seconds()*workers))
	}
}

// writeSelfTable prints each span name's count, total and self time,
// largest self time first.
func writeSelfTable(w io.Writer, spans []obs.Event) {
	st := selfTimes(spans)
	names := make([]string, 0, len(st))
	for name := range st {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if st[names[i]].self != st[names[j]].self {
			return st[names[i]].self > st[names[j]].self
		}
		return names[i] < names[j]
	})
	fmt.Fprintf(w, "%-32s %6s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, name := range names {
		s := st[name]
		fmt.Fprintf(w, "%-32s %6d %12.4f %12.4f\n", name, s.count, s.total.Seconds(), s.self.Seconds())
	}
}

// writeTrace writes the spans as JSONL, one obs event per line.
func writeTrace(path string, spans []obs.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	sink := obs.NewJSONLSink(f)
	for _, s := range spans {
		sink.Emit(s)
	}
	if err := sink.Err(); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}
