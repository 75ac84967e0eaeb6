package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Verdicts of one metric in a comparison of side B against side A.
const (
	verdictOK         = "ok"         // within the bound
	verdictBetter     = "better"     // better by more than the bound
	verdictWorse      = "worse"      // worse by more than the bound
	verdictUnresolved = "unresolved" // a side's run-to-run spread exceeds the bound
	verdictExact      = "exact"      // an exact output, identical
	verdictMismatch   = "mismatch"   // an exact output that differs, or a missing metric
)

// comparison is one metric's row.
type comparison struct {
	Metric  string
	A, B    summary
	Verdict string
}

// passed reports whether the verdict shows agreement or a gain.
func (c comparison) passed() bool {
	return c.Verdict == verdictOK || c.Verdict == verdictBetter || c.Verdict == verdictExact
}

// judge compares one end-to-end metric's medians across runs against its
// direction and bound. When either side's run-to-run spread between
// quartiles exceeds the bound, the runs cannot resolve a change of that
// size, so the metric is unresolved, unless every run of B is better than
// every run of A. setup_s is exempt from the spread rule: its first
// set-up pays the process's cold start, and its median is what is bounded.
func judge(m specMetric, a, b summary) string {
	worse := func(x, y float64) bool { // is y worse than x?
		if m.Better == "higher" {
			return y < x
		}
		return y > x
	}
	if m.Name != setupMetric && (a.spread() > m.Bound || b.spread() > m.Bound) {
		for _, x := range a.Samples {
			for _, y := range b.Samples {
				if !worse(y, x) { // y is not better than x: B does not dominate
					return verdictUnresolved
				}
			}
		}
		return verdictBetter
	}
	lo, hi := a.Median*(1-m.Bound), a.Median*(1+m.Bound)
	switch {
	case m.Better == "lower" && b.Median > hi, m.Better == "higher" && b.Median < lo:
		return verdictWorse
	case m.Better == "lower" && b.Median < lo, m.Better == "higher" && b.Median > hi:
		return verdictBetter
	}
	return verdictOK
}

// acrossRuns summarizes the value each run reports for m.
func acrossRuns(m specMetric, runs []*result) (summary, bool) {
	var vals []float64
	for _, r := range runs {
		s, ok := r.Metrics[m.Name]
		if !ok {
			return summary{}, false
		}
		vals = append(vals, reported(m, s))
	}
	return newSummary(m.Unit, vals), true
}

// compareResults checks side B's runs of one workload against side A's:
// each end-to-end metric across runs, then every exact output of each
// seed both sides ran.
func compareResults(sp *spec, a, b []*result) []comparison {
	var rows []comparison
	for _, m := range sp.EndToEnd {
		sa, okA := acrossRuns(m, a)
		sb, okB := acrossRuns(m, b)
		v := verdictMismatch
		if okA && okB {
			v = judge(m, sa, sb)
		}
		rows = append(rows, comparison{Metric: m.Name, A: sa, B: sb, Verdict: v})
	}
	for _, ra := range a {
		for _, rb := range b {
			if ra.Seed != rb.Seed {
				continue
			}
			for _, name := range exactMetrics {
				sa, okA := ra.Metrics[name]
				sb, okB := rb.Metrics[name]
				v := verdictMismatch
				if okA && okB && math.Float64bits(sa.Median) == math.Float64bits(sb.Median) {
					v = verdictExact
				}
				rows = append(rows, comparison{Metric: fmt.Sprintf("%s (seed %d)", name, ra.Seed), A: sa, B: sb, Verdict: v})
			}
		}
	}
	return rows
}

// resultFile names an untraced run's result file in an -out directory.
func resultFile(dir, workload string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("%s.%d.json", workload, seed))
}

// loadRuns reads every untraced result of the workload in dir.
func loadRuns(dir, workload string) ([]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, workload+".*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var runs []*result
	for _, p := range paths {
		if strings.HasSuffix(p, ".traced.json") {
			continue
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("parse %s: %w", p, err)
		}
		runs = append(runs, &r)
	}
	return runs, nil
}

// compareDirs compares the untraced runs of every workload found in both
// directories and prints one row per metric: each side's median,
// quartiles and run count of the reported values. It reports whether
// every metric passed and every run was correct.
func compareDirs(w io.Writer, sp *spec, dirA, dirB string) (bool, error) {
	ok, found := true, 0
	for _, wl := range workloads {
		a, err := loadRuns(dirA, wl.name)
		if err != nil {
			return false, err
		}
		b, err := loadRuns(dirB, wl.name)
		if err != nil {
			return false, err
		}
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		found++
		fmt.Fprintf(w, "%s (%d runs vs %d)\n", wl.name, len(a), len(b))
		fmt.Fprintf(w, "  %-40s %-9s %34s %34s  %s\n", "metric", "unit", "A median [q1, q3] n", "B median [q1, q3] n", "verdict")
		for _, c := range compareResults(sp, a, b) {
			fmt.Fprintf(w, "  %-40s %-9s %34s %34s  %s\n", c.Metric, c.A.Unit, formatSummary(c.A), formatSummary(c.B), c.Verdict)
			ok = ok && c.passed()
		}
		for _, runs := range [][]*result{a, b} {
			for _, r := range runs {
				if !r.Correct {
					fmt.Fprintf(w, "  seed %d: outputs incorrect or reps failed\n", r.Seed)
					ok = false
				}
			}
		}
	}
	if found == 0 {
		return false, fmt.Errorf("no workload has results in both %s and %s", dirA, dirB)
	}
	return ok, nil
}

func formatSummary(s summary) string {
	if s.N == 0 {
		return "-"
	}
	return fmt.Sprintf("%.4g [%.4g, %.4g] %d", s.Median, s.Q1, s.Q3, s.N)
}
