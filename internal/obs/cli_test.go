package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIStartTraceLifecycle runs the full CLI wiring: trace + profiles
// on, one span and one counter recorded, stop flushes everything and
// restores the dark default.
func TestCLIStartTraceLifecycle(t *testing.T) {
	dir := t.TempDir()
	c := CLI{
		Trace:      filepath.Join(dir, "trace.jsonl"),
		ProfileDir: dir,
	}
	var stderr bytes.Buffer
	log, stop, err := c.Start(&stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !On() {
		t.Fatal("-trace did not enable the layer")
	}
	log.Infof("working")
	_, sp := Start(context.Background(), "unit")
	NewCounter("obs_test.cli").Add(11)
	sp.End()
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if On() {
		t.Error("stop left the layer enabled")
	}
	if got := NewCounter("obs_test.cli").Value(); got != 0 {
		t.Errorf("stop left counter at %d", got)
	}

	data, err := os.ReadFile(c.Trace)
	if err != nil {
		t.Fatal(err)
	}
	var sawSpan, sawCounters bool
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		switch {
		case e.Kind == KindSpan && e.Name == "unit":
			sawSpan = true
		case e.Kind == KindCounters:
			sawCounters = true
			if e.Counters["obs_test.cli"] != 11 {
				t.Errorf("snapshot counter = %d, want 11", e.Counters["obs_test.cli"])
			}
		}
	}
	if !sawSpan || !sawCounters {
		t.Errorf("trace missing span(%v)/counters(%v):\n%s", sawSpan, sawCounters, data)
	}

	// Without Register the profiles take the neutral "profile" stem.
	for _, name := range []string{"profile.cpu.pprof", "profile.heap.pprof"} {
		p := filepath.Join(dir, name)
		st, err := os.Stat(p)
		if err != nil {
			t.Errorf("profile %s: %v", p, err)
		} else if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
	out := stderr.String()
	if !strings.Contains(out, "span summary:") || !strings.Contains(out, "unit") {
		t.Errorf("stderr missing span summary:\n%s", out)
	}
	if !strings.Contains(out, "obs_test.cli") {
		t.Errorf("stderr missing counter table:\n%s", out)
	}
}

// TestCLIStartProfileDir pins the unified -profile-dir contract: the
// layer and pprof labelling come on, the cpu/heap pair lands at stable
// tool-derived names (no timestamps), an explicit legacy flag overrides
// its half of the pair, and stop restores the dark default.
func TestCLIStartProfileDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "profiles")
	fs := flag.NewFlagSet("snntestgen", flag.ContinueOnError)
	c := CLI{}
	c.Register(fs)
	if err := fs.Parse([]string{"-profile-dir", dir, "-quiet"}); err != nil {
		t.Fatal(err)
	}
	_, stop, err := c.Start(os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !On() {
		t.Fatal("-profile-dir did not enable the layer")
	}
	if !ProfileLabelsOn() {
		t.Fatal("-profile-dir did not turn pprof labelling on")
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if On() || ProfileLabelsOn() {
		t.Error("stop left the layer or labelling enabled")
	}
	for _, name := range []string{"snntestgen.cpu.pprof", "snntestgen.heap.pprof"} {
		p := filepath.Join(dir, name)
		st, err := os.Stat(p)
		if err != nil {
			t.Errorf("profile %s: %v", p, err)
		} else if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

// TestCLIStartQuietSuppressesSummary keeps -quiet silent even with a
// trace enabled.
func TestCLIStartQuietSuppressesSummary(t *testing.T) {
	c := CLI{Quiet: true, Trace: filepath.Join(t.TempDir(), "trace.jsonl")}
	var stderr bytes.Buffer
	_, stop, err := c.Start(&stderr)
	if err != nil {
		t.Fatal(err)
	}
	_, sp := Start(context.Background(), "unit")
	sp.End()
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if stderr.Len() != 0 {
		t.Errorf("-quiet run wrote to stderr:\n%s", stderr.String())
	}
}

func TestCLIStartBadTracePath(t *testing.T) {
	c := CLI{Trace: filepath.Join(t.TempDir(), "missing-dir", "t.jsonl")}
	if _, _, err := c.Start(os.Stderr); err == nil {
		t.Fatal("want error for uncreatable trace file")
	}
	if On() {
		t.Error("failed Start left the layer enabled")
	}
}
