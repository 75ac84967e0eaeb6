package main

import (
	"bytes"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"github.com/repro/snntest/internal/experiments"
	"github.com/repro/snntest/internal/snn"
)

// TestRunSmoke runs a heavily strided campaign on the tiny SHD model and
// checks the per-class report lines.
func TestRunSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{
		"-bench", "shd", "-scale", "tiny", "-epochs", "1", "-stride", "50",
	}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"universe",
		"critical neuron faults:",
		"benign synapse faults:",
		"campaign time:",
		"simulated layer-steps:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q; got:\n%s", want, out)
		}
	}
}

// classCounts extracts the four per-class counts of a faultsim report.
func classCounts(t *testing.T, out string) []string {
	t.Helper()
	m := regexp.MustCompile(`(?m)^  (critical|benign) (neuron|synapse) faults: +([0-9]+)$`).FindAllStringSubmatch(out, -1)
	if len(m) != 4 {
		t.Fatalf("want 4 class-count lines, got %d in:\n%s", len(m), out)
	}
	var counts []string
	for _, c := range m {
		counts = append(counts, c[1]+" "+c[2]+" "+c[3])
	}
	return counts
}

// TestRunWeightsMatchesInProcess pins -weights to the in-process build:
// weights trained by the experiment pipeline at the same scale, seed and
// epochs (what `snntrain -out` writes) must label exactly the faults the
// in-process run labels.
func TestRunWeightsMatchesInProcess(t *testing.T) {
	opts := experiments.ScaledOptions(snn.ScaleTiny, 1)
	opts.TrainEpochs = 1
	p, err := experiments.NewPipeline("shd", opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "shd.gob")
	if err := p.Net.SaveWeightsFile(path); err != nil {
		t.Fatal(err)
	}

	var inProc, loaded, stderr bytes.Buffer
	args := []string{"-bench", "shd", "-scale", "tiny", "-epochs", "1", "-stride", "50", "-quiet"}
	if err := run(args, &inProc, &stderr); err != nil {
		t.Fatalf("in-process run: %v\nstderr:\n%s", err, stderr.String())
	}
	if err := run(append(args, "-weights", path), &loaded, &stderr); err != nil {
		t.Fatalf("-weights run: %v\nstderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(loaded.String(), "loaded weights from "+path) {
		t.Errorf("-weights run does not report the file; got:\n%s", loaded.String())
	}
	if a, b := classCounts(t, inProc.String()), classCounts(t, loaded.String()); !slices.Equal(a, b) {
		t.Errorf("-weights counts %v, in-process counts %v", b, a)
	}
}

func TestRunBadScale(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-scale", "bogus"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "unknown scale") {
		t.Fatalf("want unknown-scale error, got %v", err)
	}
}

func TestRunBadBenchmark(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-bench", "imagenet"}, &stdout, &stderr); err == nil {
		t.Fatal("want unknown-benchmark error, got nil")
	}
}
