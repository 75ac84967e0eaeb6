package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"regexp"
	"testing"
	"time"

	"github.com/repro/snntest/internal/obs"
)

func testSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec("../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestSpecListsTheWorkloads(t *testing.T) {
	sp := testSpec(t)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark runs %q", i, w.Name, workloads[i].name)
		}
	}
	if len(sp.EndToEnd) > 16 || len(sp.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics; at most 16 and 128", len(sp.EndToEnd), len(sp.PerLayer))
	}
}

// TestSmoke runs every workload body at a reduced budget, traced, and
// the cheapest one untraced too. Each run must pass its correctness
// checks and emit every metric BENCHMARK.json lists, with a well-formed
// name and the listed unit; a traced run measures the end-to-end metrics
// as well, so it is checked against both lists.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline")
	}
	sp := testSpec(t)
	nameRe := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	runs := []runConfig{{w: workloads[len(workloads)-1]}}
	for _, w := range workloads {
		runs = append(runs, runConfig{w: w, traced: true})
	}
	for _, rc := range runs {
		rc.seed, rc.smoke, rc.log = 7, true, io.Discard
		t.Run(fmt.Sprintf("%s/traced=%t", rc.w.name, rc.traced), func(t *testing.T) {
			res, err := runWorkload(context.Background(), rc)
			if err != nil {
				t.Fatal(err)
			}
			untraced := *res
			untraced.Traced = false
			for _, r := range []*result{res, &untraced} {
				if _, err := finalLine(sp, r); err != nil {
					t.Error(err)
				}
			}
			for name, s := range res.Metrics {
				if !nameRe.MatchString(name) || s.Unit == "" {
					t.Errorf("metric %q has a bad name or no unit (%q)", name, s.Unit)
				}
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("correct=%t attempted=%d failed=%d checks=%+v", res.Correct, res.Attempted, res.Failed, res.Checks)
			}
			if rc.traced {
				checkRepCoverage(t, res.spans)
			}
		})
	}
}

// checkRepCoverage requires the spans directly under each bench.rep to
// cover all but 5% of the rep's wall time, so the per-layer spans account
// for the rep.
func checkRepCoverage(t *testing.T, spans []obs.Event) {
	t.Helper()
	children := make(map[uint64][]obs.Event)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	reps := 0
	for _, s := range spans {
		if s.Name != "bench.rep" {
			continue
		}
		reps++
		if c, d := covered(s, children[s.ID]), spanDur(s); float64(d-c) > 0.05*float64(d) {
			t.Errorf("bench.rep of %v has %v outside its child spans", d, d-c)
		}
	}
	if reps == 0 {
		t.Error("traced run recorded no bench.rep span")
	}
}

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(1000, 0)
	ev := func(id, parent uint64, name string, startMS, durMS int) obs.Event {
		return obs.Event{Kind: obs.KindSpan, ID: id, Parent: parent, Name: name,
			Start: t0.Add(time.Duration(startMS) * time.Millisecond), DurUS: int64(durMS) * 1000}
	}
	// Two overlapping children cover 0–60 ms of a 100 ms parent.
	st := selfTimes([]obs.Event{
		ev(1, 0, "rep", 0, 100),
		ev(2, 1, "restart", 0, 50),
		ev(3, 1, "restart", 10, 50),
	})
	if got := st["rep"].self; got != 40*time.Millisecond {
		t.Errorf("rep self time %v, want 40ms", got)
	}
	if got := st["restart"]; got.count != 2 || got.total != 100*time.Millisecond || got.self != 100*time.Millisecond {
		t.Errorf("restart stats %+v", *got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in          []float64
		q1, md, q3  float64
		description string
	}{
		// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25, "ten"},
		// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
		{[]float64{1, 2}, 0.75, 1.5, 2.25, "two"},
		{[]float64{3}, 3, 3, 3, "one"},
	} {
		q1, md, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(md-c.md) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("%s: quartiles %v %v %v, want %v %v %v", c.description, q1, md, q3, c.q1, c.md, c.q3)
		}
	}
}

func TestCompare(t *testing.T) {
	sum := func(xs ...float64) summary { return newSummary("s", xs) }
	lower := specMetric{Name: "pipeline_s", Unit: "s", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "verify_faults_per_s", Unit: "faults/s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name string
		m    specMetric
		a, b summary
		want string
	}{
		{"within bound", lower, sum(10, 10.1, 9.9), sum(10.5, 10.6, 10.4), verdictOK},
		{"worse than bound", lower, sum(10, 10.1, 9.9), sum(12, 12.1, 11.9), verdictWorse},
		{"better than bound", lower, sum(10, 10.1, 9.9), sum(8, 8.1, 7.9), verdictBetter},
		{"higher is better, worse", higher, sum(100, 101, 99), sum(80, 81, 79), verdictWorse},
		{"unresolved", lower, sum(10, 14, 7, 12, 9), sum(10.5, 10.6, 10.4), verdictUnresolved},
		{"noisy but dominated", lower, sum(10, 14, 12, 13, 11), sum(5, 6, 7), verdictBetter},
		{"set-up spread is exempt", specMetric{Name: setupMetric, Unit: "s", Better: "lower", Bound: 0.25}, sum(0.82, 0.66, 0.60), sum(0.65, 0.60, 0.59), verdictOK},
	} {
		if got := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}

	sp := &spec{EndToEnd: []specMetric{lower}}
	run := func(seed int64, best, steps float64) *result {
		return &result{Seed: seed, Correct: true, Metrics: map[string]summary{
			"pipeline_s":      sum(best, best+0.1),
			"core.test_steps": sum(steps),
		}}
	}
	verdicts := func(a, b []*result) map[string]string {
		out := map[string]string{}
		for _, c := range compareResults(sp, a, b) {
			out[c.Metric] = c.Verdict
		}
		return out
	}
	// Runs are compared on their reported (fastest) pipeline_s across runs.
	a := []*result{run(1, 10, 1797), run(2, 10.2, 1797), run(3, 9.9, 1797)}
	if v := verdicts(a, []*result{run(1, 10.4, 1797), run(2, 10.1, 1797), run(3, 10.3, 1797)}); v["pipeline_s"] != verdictOK || v["core.test_steps (seed 2)"] != verdictExact {
		t.Errorf("agreeing runs: %v", v)
	}
	if v := verdicts(a, []*result{run(1, 13, 1797), run(2, 13.1, 1797)}); v["pipeline_s"] != verdictWorse {
		t.Errorf("slower runs: %v", v)
	}
	if v := verdicts(a, []*result{run(2, 10, 1800)}); v["core.test_steps (seed 2)"] != verdictMismatch {
		t.Errorf("exact mismatch: %v", v)
	}
	if v := verdicts(a, a); v["core.t_in_min (seed 1)"] != verdictMismatch {
		t.Errorf("an exact output missing on both sides must not pass: %v", v)
	}
}
