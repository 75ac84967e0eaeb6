package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
