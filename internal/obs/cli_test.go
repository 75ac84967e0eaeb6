// The CLI flag bundle lives in package telemetry, which builds the
// server and the ledger it starts. These tests pin what the bundle does
// to this package's global state — the enable gate, pprof labelling,
// the counter registry and the trace — so they sit beside that state as
// an external test package.

package obs_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/repro/snntest/internal/obs"
	"github.com/repro/snntest/internal/obs/telemetry"
)

// TestCLIStartTraceLifecycle runs the full CLI wiring: trace + profiles
// on, one span and one counter recorded, stop flushes everything and
// restores the dark default.
func TestCLIStartTraceLifecycle(t *testing.T) {
	dir := t.TempDir()
	c := telemetry.CLI{
		Trace:      filepath.Join(dir, "trace.jsonl"),
		ProfileDir: dir,
	}
	var stderr bytes.Buffer
	log, stop, err := c.Start(&stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !obs.On() {
		t.Fatal("-trace did not enable the layer")
	}
	log.Infof("working")
	_, sp := obs.Start(context.Background(), "unit")
	obs.NewCounter("obs_test.cli").Add(11)
	sp.End()
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if obs.On() {
		t.Error("stop left the layer enabled")
	}
	if got := obs.NewCounter("obs_test.cli").Value(); got != 0 {
		t.Errorf("stop left counter at %d", got)
	}

	data, err := os.ReadFile(c.Trace)
	if err != nil {
		t.Fatal(err)
	}
	var sawSpan, sawCounters bool
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		switch {
		case e.Kind == obs.KindSpan && e.Name == "unit":
			sawSpan = true
		case e.Kind == obs.KindCounters:
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
	c := telemetry.CLI{}
	c.Register(fs)
	if err := fs.Parse([]string{"-profile-dir", dir, "-quiet"}); err != nil {
		t.Fatal(err)
	}
	_, stop, err := c.Start(os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !obs.On() {
		t.Fatal("-profile-dir did not enable the layer")
	}
	if !obs.ProfileLabelsOn() {
		t.Fatal("-profile-dir did not turn pprof labelling on")
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if obs.On() || obs.ProfileLabelsOn() {
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
	c := telemetry.CLI{Quiet: true, Trace: filepath.Join(t.TempDir(), "trace.jsonl")}
	var stderr bytes.Buffer
	_, stop, err := c.Start(&stderr)
	if err != nil {
		t.Fatal(err)
	}
	_, sp := obs.Start(context.Background(), "unit")
	sp.End()
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if stderr.Len() != 0 {
		t.Errorf("-quiet run wrote to stderr:\n%s", stderr.String())
	}
}

func TestCLIStartBadTracePath(t *testing.T) {
	c := telemetry.CLI{Trace: filepath.Join(t.TempDir(), "missing-dir", "t.jsonl")}
	if _, _, err := c.Start(os.Stderr); err == nil {
		t.Fatal("want error for uncreatable trace file")
	}
	if obs.On() {
		t.Error("failed Start left the layer enabled")
	}
}

func TestCLILevel(t *testing.T) {
	cases := []struct {
		verbose, quiet bool
		want           obs.LogLevel
	}{
		{false, false, obs.LevelInfo},
		{true, false, obs.LevelDebug},
		{false, true, obs.LevelQuiet},
	}
	for _, tc := range cases {
		c := telemetry.CLI{Verbose: tc.verbose, Quiet: tc.quiet}
		if got := c.Level(); got != tc.want {
			t.Errorf("Level(v=%v q=%v) = %v, want %v", tc.verbose, tc.quiet, got, tc.want)
		}
	}
}

func TestCLIRegisterParse(t *testing.T) {
	var c telemetry.CLI
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	c.Register(fs)
	fs.SetOutput(io.Discard)
	err := fs.Parse([]string{"-v", "-trace", "t.jsonl", "-profile-dir", "p"})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Verbose || c.Trace != "t.jsonl" || c.ProfileDir != "p" {
		t.Fatalf("parsed CLI = %+v", c)
	}
	// -profile-dir replaced the per-file profile flags.
	if err := fs.Parse([]string{"-cpuprofile", "c.pb"}); err == nil {
		t.Error("-cpuprofile still accepted")
	}
}

func TestCLIStartRejectsVerboseQuiet(t *testing.T) {
	c := telemetry.CLI{Verbose: true, Quiet: true}
	if _, _, err := c.Start(io.Discard); err == nil {
		t.Fatal("want mutual-exclusion error")
	}
}
