package main

import (
	"math"
	"slices"
	"sort"
)

// series holds every sample of one metric taken in a run.
type series struct {
	Unit    string
	Samples []float64
}

// metricSet maps metric names to their samples.
type metricSet map[string]*series

// add appends one sample to the named metric.
func (m metricSet) add(name, unit string, v float64) {
	s := m[name]
	if s == nil {
		s = &series{Unit: unit}
		m[name] = s
	}
	s.Samples = append(s.Samples, v)
}

// summary is one metric's samples in a run: their median, quartiles,
// extremes and count.
type summary struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

// newSummary summarizes samples.
func newSummary(unit string, samples []float64) summary {
	q1, med, q3 := quartiles(samples)
	return summary{Unit: unit, Median: med, Q1: q1, Q3: q3,
		Min: slices.Min(samples), Max: slices.Max(samples), N: len(samples), Samples: samples}
}

// summarize reduces every series of m to its summary.
func summarize(m metricSet) map[string]summary {
	out := make(map[string]summary, len(m))
	for name, s := range m {
		out[name] = newSummary(s.Unit, s.Samples)
	}
	return out
}

// setupMetric is the end-to-end set-up time, reported as a median.
const setupMetric = "setup_s"

// reported is the value a run reports for end-to-end metric m: the best
// sample (the fastest rep), except for setup_s, whose median over the
// run's set-ups is reported. On a shared host one rep's time drifts by
// tens of percent over tens of seconds; the best rep of a run varies
// about half as much from run to run as the median rep (README.md).
func reported(m specMetric, s summary) float64 {
	switch {
	case m.Name == setupMetric:
		return s.Median
	case m.Better == "higher":
		return s.Max
	}
	return s.Min
}

// spread is the distance between the quartiles as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 { //lint:ignore floateq an exactly-zero median has no relative spread
		return 0
	}
	return math.Abs(s.Q3-s.Q1) / math.Abs(s.Median)
}

// quartiles returns the first quartile, median and third quartile of xs
// by the method of Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), so the numbers printed here match the ones a
// reader computes from the raw samples. One sample is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	med = d[n/2]
	if n%2 == 0 {
		med = (d[n/2-1] + d[n/2]) / 2
	}
	return q(1), med, q(3)
}
