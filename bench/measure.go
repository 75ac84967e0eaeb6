package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"syscall"
	"time"

	ag "github.com/repro/snntest/internal/autograd"
	"github.com/repro/snntest/internal/core"
	"github.com/repro/snntest/internal/fault"
	"github.com/repro/snntest/internal/obs"
	"github.com/repro/snntest/internal/snn"
	"github.com/repro/snntest/internal/tensor"
)

const (
	// setups is how many times an untraced run sets up; setup_s is their
	// median. A traced run sets up once.
	setups = 3
	// minReps is the fewest timed reps of an untraced run: four keep the
	// fastest rep of the slowest workload steady. A traced run takes at
	// least minPairs traced and minPairs untraced reps.
	minReps  = 4
	minPairs = 2
	// probeTime is how long each per-layer probe samples; each takes at
	// least probeRounds samples.
	probeTime   = time.Second
	probeRounds = 5
	// probeInputDensity is the spike density of the autograd probe's
	// input, that of the generator's initial logits.
	probeInputDensity = 0.12
)

// utilGauge is the worker-pool utilization gauge the campaign pool writes
// when it drains (the obs registry returns the existing series).
var utilGauge = obs.NewGauge("worker_utilization_percent")

// check is one correctness check of a run's outputs.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// result is everything one run measured.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Checks    []check            `json:"checks"`
	Metrics   map[string]summary `json:"metrics"`
	// spans are a traced run's recorded spans.
	spans []obs.Event
}

// runConfig selects one run.
type runConfig struct {
	w       workload
	seed    int64
	seconds time.Duration
	traced  bool
	// smoke shrinks the run for tests: one set-up and one timed rep (one
	// pair when traced), no probe time limit, and the budgets of setup.
	smoke bool
	log   io.Writer // progress lines
}

// runWorkload sets up, runs one untimed warm-up rep whose outputs become
// the reference, checks those outputs, and runs timed reps in a closed
// loop (each starts when the previous one ends) until rc.seconds have
// passed. An untraced run keeps obs dark throughout. A traced run records
// spans during set-up and during every other rep; the untraced reps in
// between give the baseline for the tracing overhead.
func runWorkload(ctx context.Context, rc runConfig) (*result, error) {
	m := metricSet{}
	var rec *obs.Recorder
	var spans []obs.Event
	if rc.traced {
		rec = &obs.Recorder{}
		obs.SetSinks(rec)
		obs.Enable()
		defer obs.Disable()
	}
	n, reps, probe := setups, minReps, probeTime
	if rc.traced {
		n, reps = 1, minPairs
	}
	if rc.smoke {
		n, reps, probe = 1, 1, 0
	}
	var f *fixture
	for i := 0; i < n; i++ {
		var err error
		if f, err = setup(ctx, rc, m); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		fmt.Fprintf(rc.log, "%s: set-up %d/%d done (%d faults, %d samples)\n", rc.w.name, i+1, n, len(f.faults), len(f.samples))
		// Collect the set-up's garbage before the next one allocates, so
		// peak_rss_mb measures one set-up, as a user pays it, not three.
		runtime.GC()
	}
	if rc.traced {
		obs.Disable()
		spans = rec.Spans()
		if f.w.campaign {
			addSpanMetrics(m, selfTimes(spans))
		}
	}

	ref, err := f.rep(ctx)
	if err != nil {
		return nil, fmt.Errorf("warm-up rep: %w", err)
	}
	if err := f.addExact(m, ref); err != nil {
		return nil, err
	}
	checks, err := f.checks(ctx, ref)
	if err != nil {
		return nil, fmt.Errorf("checks: %w", err)
	}
	if rc.traced {
		layerProbe(m, f.net, ref.stimulus, probe)
		if err := autogradProbe(m, f.net, f.generation(ref).tInMin, probe); err != nil {
			return nil, err
		}
	}

	res := &result{Workload: rc.w.name, Seed: rc.seed, Traced: rc.traced, Checks: checks}
	untraced := metricSet{}
	deadline := time.Now().Add(rc.seconds)
	done := func(i int) bool {
		if rc.traced {
			// Stop only after a traced rep, so both kinds count alike.
			return i >= 2*reps && i%2 == 0 && time.Now().After(deadline)
		}
		return i >= reps && time.Now().After(deadline)
	}
	for i := 0; !done(i); i++ {
		tracedRep := rc.traced && i%2 == 1
		into := m
		if rc.traced && !tracedRep {
			into = untraced
		}
		if tracedRep {
			rec.Reset()
			obs.Enable()
		}
		o, err := measuredRep(ctx, f, into)
		if tracedRep {
			obs.Disable()
			repSpans := rec.Spans()
			spans = append(spans, repSpans...)
			if !f.w.campaign {
				addSpanMetrics(m, selfTimes(repSpans))
			}
			m.add("fault.worker_util_pct", "%", float64(utilGauge.Value()))
		}
		res.Attempted++
		if err == nil {
			if d := o.diff(ref); d != "" {
				err = fmt.Errorf("departs from the warm-up rep: %s", d)
			}
		}
		if err != nil {
			res.Failed++
			fmt.Fprintf(rc.log, "%s: rep %d failed: %v\n", rc.w.name, i+1, err)
		}
	}
	if rc.traced {
		if base, tr := untraced["pipeline_s"], m["pipeline_s"]; base != nil && tr != nil {
			// Fastest against fastest, as the end-to-end metrics are reported.
			m.add("obs.trace_overhead_pct", "%", 100*(slices.Min(tr.Samples)/slices.Min(base.Samples)-1))
		}
		res.spans = spans
	}
	m.add("peak_rss_mb", "MB", peakRSSMB())
	res.Metrics = summarize(m)
	res.Correct = res.Failed == 0
	for _, c := range checks {
		res.Correct = res.Correct && c.OK
	}
	return res, nil
}

// usage is the process-wide resource counters at one instant.
type usage struct {
	cpu   time.Duration
	alloc uint64 // cumulative heap bytes allocated
	gc    uint32 // completed GC cycles
	pause uint64 // cumulative GC stop-the-world pause, ns
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
		gc:    ms.NumGC,
		pause: ms.PauseTotalNs,
	}
}

// peakRSSMB returns the process's maximum resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

// measuredRep runs one rep and adds its wall time, process CPU time,
// allocation, GC activity and layer timings to m. The resource counters
// are read outside the timed window.
func measuredRep(ctx context.Context, f *fixture, m metricSet) (*outcome, error) {
	before := readUsage()
	t0 := time.Now()
	o, err := f.rep(ctx)
	wall := time.Since(t0)
	after := readUsage()
	if err != nil {
		return nil, err
	}
	m.add("pipeline_s", "s", wall.Seconds())
	m.add("pipeline_cpu_s", "s", (after.cpu - before.cpu).Seconds())
	m.add("alloc_mb", "MB/rep", float64(after.alloc-before.alloc)/1e6)
	m.add("runtime.gc_cycles", "count", float64(after.gc-before.gc))
	m.add("runtime.gc_pause_ms", "ms", float64(after.pause-before.pause)/1e6)
	if f.w.campaign {
		addClassify(m, o.labels, o.classify)
	} else {
		addGeneration(m, o.gen)
	}
	addVerify(m, len(f.faults), o.sim, o.verify)
	return o, nil
}

// checks verifies the reference outcome once per run, outside the timed
// region: the incremental campaign against full re-simulation, the
// compacted test against the uncompacted one, and replay from every layer
// against the golden pass.
func (f *fixture) checks(ctx context.Context, ref *outcome) ([]check, error) {
	full, err := fault.SimulateWith(f.net, f.faults, ref.stimulus, fault.CampaignOptions{Workers: workers, FullResim: true, Context: ctx})
	if err != nil {
		return nil, err
	}
	g := f.generation(ref)
	raw := ref.sim // compaction that drops no chunk reassembles the same stimulus
	if fingerprint(g.raw.Stimulus) != fingerprint(ref.stimulus) {
		if raw, err = fault.SimulateWith(f.net, f.faults, g.raw.Stimulus, fault.CampaignOptions{Workers: workers, Context: ctx}); err != nil {
			return nil, err
		}
	}
	return []check{
		{
			Name:   "full-resim",
			OK:     slices.Equal(full.Detected, ref.sim.Detected),
			Detail: fmt.Sprintf("full re-simulation detects %d faults, the incremental campaign %d", full.NumDetected(), ref.sim.NumDetected()),
		},
		{
			Name:   "compaction",
			OK:     ref.sim.NumDetected() >= raw.NumDetected(),
			Detail: fmt.Sprintf("compacted test (%d steps) detects %d faults, uncompacted (%d steps) %d", g.compacted.TotalSteps(), ref.sim.NumDetected(), g.raw.TotalSteps(), raw.NumDetected()),
		},
		replayCheck(f.net, ref.stimulus),
	}, nil
}

// replayCheck requires RunFrom(ℓ) over the golden record to reproduce the
// golden pass's layers ≥ ℓ bit for bit, for every start layer ℓ.
func replayCheck(net *snn.Network, stim *tensor.Tensor) check {
	golden := net.Run(stim)
	sc := net.NewScratch()
	for start := range net.Layers {
		rec, _ := sc.RunFrom(start, golden, stim)
		for li := start; li < len(net.Layers); li++ {
			if !bitsEqual(rec.Layers[li].Data(), golden.Layers[li].Data()) {
				return check{Name: "replay-layers", Detail: fmt.Sprintf("RunFrom(%d) layer %s differs from the golden pass", start, net.Layers[li].Name)}
			}
		}
	}
	return check{Name: "replay-layers", OK: true, Detail: fmt.Sprintf("RunFrom(ℓ) reproduces the golden pass for all %d start layers", len(net.Layers))}
}

func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// layerProbe times RunFrom(ℓ) over the stimulus for every start layer ℓ,
// in rounds that visit each start once so that drift hits every layer
// alike. Layer ℓ costs t(RunFrom(ℓ)) − t(RunFrom(ℓ+1)); dividing by the
// stimulus steps and the layer's multiply–accumulates per step gives
// per-layer figures that compare dense, conv, pool and recurrent layers.
// The hidden role is every layer below the output layer.
func layerProbe(m metricSet, net *snn.Network, stim *tensor.Tensor, probe time.Duration) {
	golden := net.Run(stim)
	sc := net.NewScratch()
	last := len(net.Layers) - 1
	steps := float64(stim.Dim(0))
	hiddenMACs := 0
	for _, l := range net.Layers[:last] {
		hiddenMACs += macsPerStep(l)
	}
	t := make([]float64, len(net.Layers)+1)
	deadline := time.Now().Add(probe)
	for r := 0; r < probeRounds || time.Now().Before(deadline); r++ {
		for l := range net.Layers {
			t0 := time.Now()
			sc.RunFrom(l, golden, stim)
			t[l] = float64(time.Since(t0).Nanoseconds())
		}
		m.add("snn.golden_pass_ms", "ms", t[0]/1e6)
		for l, layer := range net.Layers {
			c := t[l] - t[l+1]
			m.add("snn."+layer.Name+".ns_per_step", "ns", c/steps)
			m.add("snn."+layer.Name+".ps_per_mac", "ps", 1000*c/(steps*float64(macsPerStep(layer))))
		}
		hidden := t[0] - t[last]
		m.add("snn.hidden.ns_per_step", "ns", hidden/steps)
		m.add("snn.hidden.ps_per_mac", "ps", 1000*hidden/(steps*float64(hiddenMACs)))
	}
}

// macsPerStep is the multiply–accumulate count of one layer step, from
// the projection's shapes; a sum-pool window counts one per tap.
func macsPerStep(l *snn.Layer) int {
	switch p := l.Proj.(type) {
	case *snn.DenseProj:
		return p.W.Len()
	case *snn.RecurrentProj:
		return p.W.Len() + p.R.Len()
	case *snn.ConvProj:
		out := p.OutShape()
		return p.K.Len() * out[1] * out[2]
	case *snn.PoolProj:
		return l.NumNeurons() * p.KSize * p.KSize
	}
	return l.NumNeurons()
}

// autogradProbe times the generator's unit of work: one RunGraphFused
// forward pass plus an L1+L2 Backward over a steps-long input, on an
// inference-mode clone of the network.
func autogradProbe(m metricSet, net *snn.Network, steps int, probe time.Duration) error {
	clone := net.Clone()
	rng := rand.New(rand.NewSource(fixtureSeed))
	in := make([]*ag.Node, steps)
	for t := range in {
		x := tensor.New(net.InShape...)
		d := x.Data()
		for i := range d {
			if rng.Float64() < probeInputDensity {
				d[i] = 1
			}
		}
		in[t] = ag.Leaf(x)
	}
	mask := core.FullMask(clone)
	deadline := time.Now().Add(probe)
	for r := 0; r < probeRounds || time.Now().Before(deadline); r++ {
		for _, x := range in {
			x.ZeroGrad()
		}
		t0 := time.Now()
		res := clone.RunGraphFused(in)
		if err := ag.Backward(ag.Add(core.L1(res), core.L2(res, mask))); err != nil {
			return fmt.Errorf("autograd probe: %w", err)
		}
		m.add("autograd.step_ms", "ms", float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return nil
}
