package telemetry

import (
	"bytes"
	"encoding/json"
	"net/http"
	"regexp"
	"testing"

	"github.com/repro/snntest/internal/obs"
)

// TestCLIStartServeRehydratesLedger drives -ledger and -serve through
// CLI.Start: a -ledger run journals a campaign run, and a later
// -serve run on the same directory announces its address on the
// "telemetry server listening on" line and serves that run from /runs as
// rehydrated history. Stop turns the run events off and closes the
// listener.
func TestCLIStartServeRehydratesLedger(t *testing.T) {
	dir := t.TempDir()
	writer := CLI{Quiet: true, Ledger: dir}
	_, stop, err := writer.Start(&bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	run := obs.NewRunID("campaign/simulate")
	obs.EmitRunStart(run, "campaign/simulate", 1, nil)
	obs.EmitFault(run, "campaign/simulate", obs.FaultOutcome{Detected: true, DivStep: 0, SimSteps: 1})
	obs.EmitRunEnd(run, "campaign/simulate", 1, 1, nil)
	if err := stop(); err != nil {
		t.Fatal(err)
	}

	var stderr bytes.Buffer
	server := CLI{Serve: "127.0.0.1:0", Ledger: dir}
	_, stop, err = server.Start(&stderr)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`telemetry server listening on http://(\S+)`).FindStringSubmatch(stderr.String())
	if m == nil {
		_ = stop()
		t.Fatalf("no listening line on stderr:\n%s", stderr.String())
	}
	url := "http://" + m[1] + "/runs/" + run
	resp, err := http.Get(url)
	if err != nil {
		_ = stop()
		t.Fatal(err)
	}
	var r RunProgress
	derr := json.NewDecoder(resp.Body).Decode(&r)
	resp.Body.Close()
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || derr != nil {
		t.Fatalf("GET %s = %d (%v), want 200 with a run", url, resp.StatusCode, derr)
	}
	if !r.Rehydrated || !r.Terminal || r.Detected != 1 {
		t.Errorf("run %s = %+v, want rehydrated, terminal, 1 detected", run, r)
	}
	if obs.RunEventsOn() {
		t.Error("stop left run events on")
	}
	if resp, err := http.Get(url); err == nil {
		resp.Body.Close()
		t.Error("server still answering after stop")
	}
}
