package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// specMetric is one metric entry of BENCHMARK.json. Bound and Better are
// set only for end-to-end metrics.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better,omitempty"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec is the part of BENCHMARK.json the benchmark reads: the run length,
// the workload names and the metrics each kind of run must print.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// loadSpec reads and checks BENCHMARK.json.
func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec: %w", err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if s.RunSeconds < 1 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: needs run_seconds ≥ 1 and both metric lists", path)
	}
	for _, m := range s.EndToEnd {
		if m.Better != "lower" && m.Better != "higher" {
			return nil, fmt.Errorf("%s: metric %s: better must be lower or higher, not %q", path, m.Name, m.Better)
		}
	}
	return &s, nil
}

// metrics returns the metrics a run prints: the end-to-end ones for an
// untraced run, the per-layer ones for a traced run.
func (s *spec) metrics(traced bool) []specMetric {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}
