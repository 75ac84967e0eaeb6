package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunSmoke trains the tiny NMNIST model for one epoch and saves the
// weights, checking the log and the weight file round-trip message.
func TestRunSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "w.gob")
	var stdout, stderr bytes.Buffer
	args := []string{
		"-bench", "nmnist", "-scale", "tiny", "-epochs", "1", "-out", out,
	}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}
	got := stdout.String()
	for _, want := range []string{"neurons", "test accuracy:", "weights written to"} {
		if !strings.Contains(got, want) {
			t.Errorf("stdout missing %q; got:\n%s", want, got)
		}
	}
}

func TestRunBadScale(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-scale", "bogus"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "unknown scale") {
		t.Fatalf("want unknown-scale error, got %v", err)
	}
}
