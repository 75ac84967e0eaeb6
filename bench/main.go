// Command snnbench is the repository benchmark. It drives the paper's
// pipeline on the tiny fixtures — set-up, T_in,min calibration, test
// generation, compaction, criticality labelling and the verification
// campaign — and times each layer from outside by wrapping the calls into
// that layer's public functions. See README.md for the workloads, the
// metrics and how to run it; bench/run.sh builds and runs it from the
// repository root.
//
// One run measures one workload and prints, as the last line of its
// standard output, one JSON object with the keys correct, attempted,
// failed and metrics: the end-to-end metrics of BENCHMARK.json for an
// untraced run, its per-layer metrics for a traced run (-trace 1).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// specFile is BENCHMARK.json, read from the repository root.
const specFile = "BENCHMARK.json"

func main() {
	runtime.GOMAXPROCS(workers)
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the command line, runs what it selects and returns the exit
// status.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("snnbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "all", "workload to run, or all to run each in its own child process, one after another")
	seed := fl.Int64("seed", 7, "workload seed; it draws the labelled evaluation samples (11 is held out for checking claims)")
	seconds := fl.Int("seconds", 0, "how long the timed reps of one run last; 0 takes run_seconds from BENCHMARK.json")
	trace := fl.Int("trace", 0, "1 for a traced run that reports the per-layer metrics, 0 for the end-to-end metrics")
	out := fl.String("out", "", "directory that receives <workload>.<seed>.json, or <workload>.<seed>.traced.json and .trace.jsonl")
	compare := fl.Bool("compare", false, "compare the runs in two -out directories against BENCHMARK.json: -compare dirA dirB")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec(specFile)
	if err != nil {
		fmt.Fprintln(stderr, "snnbench:", err)
		return 1
	}
	if *compare {
		if fl.NArg() != 2 {
			fmt.Fprintln(stderr, "snnbench: -compare takes two directories")
			return 2
		}
		ok, err := compareDirs(stdout, sp, fl.Arg(0), fl.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "snnbench:", err)
			return 1
		}
		if !ok {
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "snnbench: -trace must be 0 or 1")
		return 2
	}
	secs := *seconds
	if secs <= 0 {
		secs = sp.RunSeconds
	}
	if *name == "all" {
		return runAll(ctx, stdout, stderr, args)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "snnbench:", err)
		return 2
	}
	if err := runOne(ctx, stdout, sp, runConfig{
		w: w, seed: *seed, seconds: time.Duration(secs) * time.Second, traced: *trace == 1, log: stderr,
	}, *out); err != nil {
		fmt.Fprintln(stderr, "snnbench:", err)
		return 1
	}
	return 0
}

// runOne runs one workload, prints its tables and final JSON line, and
// writes its result files when out is set.
func runOne(ctx context.Context, stdout io.Writer, sp *spec, rc runConfig, out string) error {
	res, err := runWorkload(ctx, rc)
	if err != nil {
		return fmt.Errorf("%s: %w", rc.w.name, err)
	}
	line, err := finalLine(sp, res)
	if err != nil {
		return fmt.Errorf("%s: %w", rc.w.name, err)
	}
	if out != "" {
		if err := writeResult(out, res); err != nil {
			return err
		}
	}
	writeTables(stdout, res)
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// metricValue is one metric of the final line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finalLine renders the run's result as the one-line JSON object that
// ends its output, holding every metric BENCHMARK.json lists for this
// kind of run.
func finalLine(sp *spec, res *result) ([]byte, error) {
	metrics := make(map[string]metricValue)
	for _, m := range sp.metrics(res.Traced) {
		s, ok := res.Metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if s.Unit != m.Unit {
			return nil, fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", m.Name, s.Unit, m.Unit)
		}
		v := s.Median
		if !res.Traced {
			v = reported(m, s)
		}
		metrics[m.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
}

// writeResult stores the run's result in dir, and a traced run's spans.
func writeResult(dir string, res *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	path := resultFile(dir, res.Workload, res.Seed)
	if res.Traced {
		base := strings.TrimSuffix(path, ".json")
		path = base + ".traced.json"
		if err := writeTrace(base+".trace.jsonl", res.spans); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	return nil
}

// writeTables prints the checks, every metric's median, quartiles and
// sample count, and for a traced run the self time of each span name.
func writeTables(w io.Writer, res *result) {
	fmt.Fprintf(w, "workload %s, seed %d, traced %t\n", res.Workload, res.Seed, res.Traced)
	for _, c := range res.Checks {
		status := "ok"
		if !c.OK {
			status = "FAILED"
		}
		fmt.Fprintf(w, "check %-14s %-6s %s\n", c.Name, status, c.Detail)
	}
	fmt.Fprintf(w, "reps attempted %d, failed %d, failed_frac %g\n", res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-34s %-9s %12s %12s %12s %12s %12s %4s\n", "metric", "unit", "median", "q1", "q3", "min", "max", "n")
	for _, name := range names {
		s := res.Metrics[name]
		fmt.Fprintf(w, "%-34s %-9s %12.6g %12.6g %12.6g %12.6g %12.6g %4d\n", name, s.Unit, s.Median, s.Q1, s.Q3, s.Min, s.Max, s.N)
	}
	if res.Traced {
		writeSelfTable(w, res.spans)
	}
}

// runAll runs every workload in its own child process, one after
// another, with the same flags, and fails if any child fails or reports
// incorrect outputs.
func runAll(ctx context.Context, stdout, stderr io.Writer, args []string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "snnbench:", err)
		return 1
	}
	status := 0
	for _, w := range workloads {
		var buf bytes.Buffer
		// The flag package keeps the last value of a repeated flag.
		cmd := exec.CommandContext(ctx, exe, append(args, "-workload", w.name)...)
		cmd.Stdout = io.MultiWriter(stdout, &buf)
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "snnbench: %s: %v\n", w.name, err)
			status = 1
			continue
		}
		var last struct {
			Correct bool `json:"correct"`
			Failed  int  `json:"failed"`
		}
		if err := json.Unmarshal(lastLine(buf.Bytes()), &last); err != nil || !last.Correct || last.Failed > 0 {
			fmt.Fprintf(stderr, "snnbench: %s: outputs incorrect or reps failed\n", w.name)
			status = 1
		}
	}
	return status
}

// lastLine returns the last non-empty line of b.
func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}
