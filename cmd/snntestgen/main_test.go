package main

import (
	"bytes"
	"context"
	"regexp"
	"strings"
	"testing"

	"github.com/repro/snntest/internal/experiments"
	"github.com/repro/snntest/internal/snn"
)

// TestRunSmoke drives the full binary pipeline — build, train, generate,
// verify — on a minimal budget and checks the headline report lines.
func TestRunSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{
		"-bench", "nmnist", "-scale", "tiny", "-epochs", "1",
		"-steps1", "8", "-max-iter", "1", "-restarts", "2",
		"-tinmin", "6", "-stride", "50",
	}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"T_in,min: 6 steps",
		"Activated neurons",
		"generation:",
		"restarts evaluated:",
		"FC critical neuron faults",
		"FC benign synapse faults",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q; got:\n%s", want, out)
		}
	}
}

// table3Rows returns the rows of a rendered Table III block except the
// wall-clock runtime row.
func table3Rows(t *testing.T, out string) []string {
	t.Helper()
	i := strings.Index(out, "Table III:")
	if i < 0 {
		t.Fatalf("no Table III in:\n%s", out)
	}
	block, _, _ := strings.Cut(out[i:], "\n\n")
	var rows []string
	for _, l := range strings.Split(block, "\n") {
		if !strings.HasPrefix(l, "Test generation runtime") {
			rows = append(rows, l)
		}
	}
	return rows
}

// TestRunMatchesTable3 pins the command to the experiment pipeline: a
// cheap-budget run prints, runtime aside, exactly the Table III row that
// experiments.Table3 computes on the Options its flags describe.
func TestRunMatchesTable3(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{
		"-bench", "nmnist", "-scale", "tiny", "-epochs", "1",
		"-steps1", "8", "-max-iter", "1", "-tinmin", "6", "-stride", "50", "-quiet",
	}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}

	opts := experiments.ScaledOptions(snn.ScaleTiny, 1)
	opts.TrainEpochs = 1
	opts.GenConfig.Steps1 = 8
	opts.GenConfig.MaxIterations = 1
	opts.GenConfig.TInMin = 6
	opts.FaultStride = 50
	p, err := experiments.NewPipeline("nmnist", opts)
	if err != nil {
		t.Fatal(err)
	}
	row, err := experiments.Table3(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := experiments.RenderTable3(&want, []experiments.Table3Row{row}); err != nil {
		t.Fatal(err)
	}
	if got, exp := table3Rows(t, stdout.String()), table3Rows(t, want.String()); strings.Join(got, "\n") != strings.Join(exp, "\n") {
		t.Errorf("snntestgen Table III:\n%s\nexperiments.Table3:\n%s", strings.Join(got, "\n"), strings.Join(exp, "\n"))
	}
}

// TestRunProfileDirDarkIdentity pins that a -profile-dir run leaves the
// tool's stdout byte-identical to a dark run: profiling is observability,
// never behaviour. verify.sh gates the capture's phase attribution with
// go tool pprof on a longer run.
func TestRunProfileDirDarkIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("live CPU profile capture in -short mode")
	}
	// A generation-heavy budget, so the profiled window runs the
	// phase-labelled kernels rather than only training.
	args := []string{
		"-bench", "nmnist", "-scale", "tiny", "-epochs", "1",
		"-steps1", "100", "-max-iter", "4", "-restarts", "4",
		"-tinmin", "6", "-stride", "50",
	}
	var dark, darkErr bytes.Buffer
	if err := run(args, &dark, &darkErr); err != nil {
		t.Fatalf("dark run: %v\nstderr:\n%s", err, darkErr.String())
	}

	dir := t.TempDir()
	var lit, litErr bytes.Buffer
	if err := run(append([]string{"-profile-dir", dir, "-quiet"}, args...), &lit, &litErr); err != nil {
		t.Fatalf("profiled run: %v\nstderr:\n%s", err, litErr.String())
	}
	// Wall-clock timings differ run to run even fully dark; everything
	// else — every count, percentage and table — must be byte-identical.
	durations := regexp.MustCompile(`[0-9]+(\.[0-9]+)?(ns|µs|us|ms|m|h|s)\b`)
	norm := func(s string) string { return durations.ReplaceAllString(s, "DUR") }
	if norm(dark.String()) != norm(lit.String()) {
		t.Errorf("-profile-dir changed stdout:\ndark:\n%s\nprofiled:\n%s", dark.String(), lit.String())
	}
}

func TestRunBadScale(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-scale", "bogus"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "unknown scale") {
		t.Fatalf("want unknown-scale error, got %v", err)
	}
}

func TestRunBadFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-no-such-flag"}, &stdout, &stderr); err == nil {
		t.Fatal("want flag-parse error, got nil")
	}
}
