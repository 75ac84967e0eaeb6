package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/repro/snntest/internal/obs"
)

// TestRunSmoke renders Table I for one benchmark on a one-epoch training
// budget — the cheapest artifact that still exercises the pipeline build.
func TestRunSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{
		"-scale", "tiny", "-bench", "nmnist", "-epochs", "1", "-table", "1",
	}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "Table I") || !strings.Contains(out, "nmnist") {
		t.Errorf("stdout missing Table I for nmnist; got:\n%s", out)
	}
}

// TestRunOutFile checks the -out path writes the report to disk instead
// of stdout.
func TestRunOutFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.txt")
	var stdout, stderr bytes.Buffer
	args := []string{
		"-scale", "tiny", "-bench", "nmnist", "-epochs", "1", "-table", "1",
		"-out", path,
	}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Table I") {
		t.Errorf("report file missing Table I; got:\n%s", data)
	}
	if strings.Contains(stdout.String(), "Table I") {
		t.Error("table leaked to stdout despite -out")
	}
}

func TestRunBadScale(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-scale", "bogus"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "unknown scale") {
		t.Fatalf("want unknown-scale error, got %v", err)
	}
}

func TestRunNoBenchmarks(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-bench", ",", "-table", "1"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "no benchmarks selected") {
		t.Fatalf("want no-benchmarks error, got %v", err)
	}
}

// TestRunObsManifest checks -obs: the run manifest lands next to the
// report with live counters and the run's configuration.
func TestRunObsManifest(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "BENCH_manifest.json")
	var stdout, stderr bytes.Buffer
	args := []string{
		"-scale", "tiny", "-bench", "nmnist", "-epochs", "1", "-table", "1",
		"-obs", "-manifest", manifest,
	}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest is not valid JSON: %v\n%s", err, data)
	}
	if m.Config["tool"] != "benchreport" || m.Config["scale"] != "tiny" {
		t.Errorf("manifest config = %v", m.Config)
	}
	if m.GitRev == "" || m.GoVersion == "" {
		t.Errorf("manifest provenance incomplete: %+v", m)
	}
	// Table I only trains and evaluates, so the simulator counters are
	// the ones guaranteed to be live.
	if m.Counters["snn_forward_passes_total"] <= 0 || m.Counters["snn_layer_steps_total"] <= 0 {
		t.Errorf("manifest counters dead: %v", m.Counters)
	}
}
