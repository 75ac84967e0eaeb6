package fault

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/repro/snntest/internal/obs"
	"github.com/repro/snntest/internal/pool"
	"github.com/repro/snntest/internal/snn"
	"github.com/repro/snntest/internal/tensor"
)

// CampaignOptions tunes a fault-simulation campaign.
type CampaignOptions struct {
	// Workers is the campaign worker count; ≤ 0 uses GOMAXPROCS.
	Workers int
	// Progress, when non-nil, is called periodically with the number of
	// completed faults. It runs outside every campaign lock and — with
	// more than one worker — possibly from several goroutines at once,
	// so it must be safe for concurrent use. The terminal done == total
	// call is guaranteed, exactly once, even for an empty fault list.
	Progress func(done int)
	// FullResim disables golden-trace replay and early exit, re-running
	// the whole network from layer 0 over the full duration for every
	// fault. It exists as the reference path: results are identical to
	// the incremental default, only slower.
	FullResim bool
	// Context, when non-nil, parents the campaign's obs span so traces
	// nest under the caller's tree. It is observability-only: campaigns
	// do not watch it for cancellation.
	Context context.Context
}

// Campaign-level counters, updated once per campaign (not per fault) so
// the disabled obs layer costs nothing on the fault hot path.
var (
	obsCampaignLayerSteps = obs.NewCounter("fault_layer_steps_total")
	obsCampaignFullSteps  = obs.NewCounter("fault_full_layer_steps_total")
	obsFaultsSimulated    = obs.NewCounter("fault_simulated_total")
	obsFaultsDetected     = obs.NewCounter("fault_detected_total")
	obsFaultsClassified   = obs.NewCounter("fault_classified_total")
	obsFaultsCritical     = obs.NewCounter("fault_critical_total")
)

// SimResult is the outcome of one fault-simulation campaign against a
// test stimulus.
type SimResult struct {
	Detected []bool // parallel to the fault list
	Elapsed  time.Duration
	// LayerSteps counts the (layer, time-step) simulation units actually
	// executed across the campaign; FullLayerSteps is what a full
	// re-simulation of every fault would have executed. Their ratio is
	// the incremental campaign's work saving.
	LayerSteps     int64
	FullLayerSteps int64
}

// NumDetected counts detected faults.
func (r *SimResult) NumDetected() int {
	n := 0
	for _, d := range r.Detected {
		if d {
			n++
		}
	}
	return n
}

// ClassifyResult is the outcome of a criticality-labelling campaign.
type ClassifyResult struct {
	Critical []bool // parallel to the fault list
	Elapsed  time.Duration
	// LayerSteps / FullLayerSteps mirror SimResult's work counters.
	LayerSteps     int64
	FullLayerSteps int64
}

// progressReporter reports campaign completion counts every stride
// completions: to the optional CampaignOptions.Progress callback and as
// run-scoped progress events. tick runs on worker goroutines outside
// every campaign lock; finish — called after the workers join —
// guarantees exactly one terminal done == total report, even when the
// fault list is empty or total is not a stride multiple.
type progressReporter struct {
	done     atomic.Int64
	terminal atomic.Bool
	total    int
	stride   int64
	fn       func(done int)
	name     string
	run      string // "" when run events are off
}

// active reports whether anything consumes the reports.
func (r *progressReporter) active() bool { return r.fn != nil || r.run != "" }

// tick records one completed fault.
func (r *progressReporter) tick() {
	if !r.active() {
		return
	}
	d := r.done.Add(1)
	if d%r.stride != 0 && int(d) != r.total {
		return
	}
	if int(d) == r.total && !r.terminal.CompareAndSwap(false, true) {
		return
	}
	r.emit(int(d))
}

// finish emits the terminal report unless a tick already did.
func (r *progressReporter) finish() {
	if !r.active() || r.terminal.Swap(true) {
		return
	}
	r.emit(r.total)
}

func (r *progressReporter) emit(done int) {
	if r.fn != nil {
		r.fn(done)
	}
	obs.ProgressRun(r.run, r.name, done, r.total)
}

// campaign describes one fault campaign to run: what SimulateWith and
// ClassifyWith differ in. Everything else — the span, the run identity,
// the run_start/fault/run_end events, progress and the closing
// counters — is the lifecycle in run.
type campaign struct {
	name   string // span, run and progress-stream name
	stride int    // progress reporting stride, in faults
	// hitKey names the positive outcome ("detected" or "critical") in the
	// run_end and span attributes; faultCounter and hitCounter are the
	// closing counters.
	hitKey                   string
	faultCounter, hitCounter *obs.Counter
	// golden runs the fault-free reference simulations inside the
	// campaign span. It returns the run_start metadata and the
	// layer-steps a full re-simulation of one fault costs.
	golden func() (attrs map[string]any, fullPerFault int64)
	// simulate runs fault i on a worker's injector and reports its
	// detection flag, simulated steps and layer-steps. It must write only
	// to its own fault's result slot.
	simulate func(inj *Injector, i int) obs.FaultOutcome
}

// campaignTally is what run returns: the hit count and the campaign's
// work counters.
type campaignTally struct {
	hits                       int
	layerSteps, fullLayerSteps int64
}

// run executes the campaign over faults on a pool of per-worker
// injectors of net.
func (c *campaign) run(net *snn.Network, faults []Fault, opts CampaignOptions) campaignTally {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, sp := obs.Start(ctx, c.name)
	defer sp.End()
	sp.SetAttr("faults", len(faults))
	attrs, fullPerFault := c.golden()
	for k, v := range attrs {
		sp.SetAttr(k, v)
	}
	rep := &progressReporter{total: len(faults), stride: int64(c.stride), fn: opts.Progress, name: c.name}
	if obs.RunEventsOn() {
		rep.run = obs.NewRunID(c.name)
		obs.EmitRunStart(rep.run, c.name, len(faults), attrs)
		// Tag this goroutine's CPU samples with the run id; the pool
		// workers spawned below inherit the goroutine label set.
		ctx = obs.WithRunLabel(ctx, rep.run)
	}
	var hits, layerSteps atomic.Int64
	pool.RunWith(opts.Workers, len(faults), func() *Injector { return NewInjector(net) }, func(inj *Injector, i int) {
		out := c.simulate(inj, i)
		layerSteps.Add(int64(out.LayerSteps))
		if out.Detected {
			hits.Add(1)
		}
		if rep.run != "" {
			f := faults[i]
			out.Index, out.Kind, out.Layer = i, f.Kind.String(), f.Layer
			obs.EmitFault(rep.run, c.name, out)
		}
		rep.tick()
	})
	rep.finish()
	t := campaignTally{
		hits:           int(hits.Load()),
		layerSteps:     layerSteps.Load(),
		fullLayerSteps: int64(len(faults)) * fullPerFault,
	}
	if rep.run != "" {
		obs.EmitRunEnd(rep.run, c.name, len(faults), len(faults), map[string]any{
			c.hitKey:      t.hits,
			"layer_steps": t.layerSteps,
		})
	}
	if obs.On() {
		c.faultCounter.Add(int64(len(faults)))
		c.hitCounter.Add(int64(t.hits))
		obsCampaignLayerSteps.Add(t.layerSteps)
		obsCampaignFullSteps.Add(t.fullLayerSteps)
		sp.SetAttr(c.hitKey, t.hits)
		sp.SetAttr("layer_steps", t.layerSteps)
	}
	return t
}

// SimulateWith runs the fault-simulation campaign: each fault is
// injected in turn and the network is simulated on the stimulus; the
// fault is detected if the output spike trains differ from the golden
// response in L1 (Eq. 3). opts.Workers ≤ 0 uses GOMAXPROCS; see
// CampaignOptions for progress reporting, cancellation and the
// FullResim reference path.
//
// The campaign is incremental: a fault at layer ℓ cannot perturb layers
// below ℓ, so simulation replays the golden record up to the fault site
// and re-simulates only layers ≥ ℓ, stopping at the first time step whose
// output row diverges from the golden response. Detection flags are
// identical to a full re-simulation of every fault.
func SimulateWith(golden *snn.Network, faults []Fault, stimulus *tensor.Tensor, opts CampaignOptions) (*SimResult, error) {
	start := time.Now()
	steps, err := golden.CheckInput(stimulus)
	if err != nil {
		return nil, fmt.Errorf("fault: SimulateWith: %w", err)
	}
	if err := Validate(golden, faults); err != nil {
		return nil, err
	}
	res := &SimResult{Detected: make([]bool, len(faults))}
	var goldenRec *snn.Record
	var goldenOut *tensor.Tensor
	c := campaign{
		name: "campaign/simulate", stride: 256,
		hitKey:       "detected",
		faultCounter: obsFaultsSimulated, hitCounter: obsFaultsDetected,
		golden: func() (map[string]any, int64) {
			goldenRec = golden.Run(stimulus)
			goldenOut = goldenRec.Output()
			return map[string]any{"steps": steps, "layers": len(golden.Layers)},
				int64(len(golden.Layers)) * int64(steps)
		},
		simulate: func(inj *Injector, i int) obs.FaultOutcome {
			f := faults[i]
			revert := inj.Apply(f)
			defer revert()
			out := obs.FaultOutcome{DivStep: -1, SimSteps: steps}
			if opts.FullResim {
				rec, n := inj.Scratch().RunFrom(0, nil, stimulus)
				out.Detected, out.LayerSteps = tensor.L1Diff(goldenOut, rec.Output()) > 0, n
				if out.Detected && obs.RunEventsOn() {
					out.DivStep = firstDivergence(rec.Output(), goldenOut, steps)
				}
			} else {
				out.Detected, out.LayerSteps = inj.Scratch().DivergesFrom(f.StartLayer(), goldenRec, stimulus)
				out.SimSteps = inj.Scratch().LastSimSteps()
				if out.Detected {
					// Early exit happens on the divergent step, so the last
					// simulated step is the first divergence.
					out.DivStep = out.SimSteps - 1
				}
			}
			res.Detected[i] = out.Detected
			return out
		},
	}
	t := c.run(golden, faults, opts)
	res.LayerSteps, res.FullLayerSteps = t.layerSteps, t.fullLayerSteps
	res.Elapsed = time.Since(start)
	return res, nil
}

// firstDivergence returns the first timestep whose out row differs from
// the golden output, or -1 when the trains are identical. The FullResim
// reference path re-derives here what DivergesFrom's early exit yields
// for free on the incremental path.
func firstDivergence(out, golden *tensor.Tensor, steps int) int {
	for t := 0; t < steps; t++ {
		if !tensor.RowEqual(out, golden, t) {
			return t
		}
	}
	return -1
}

// ClassifyWith labels each fault critical (Critical[i] true) or benign:
// a fault is critical when it flips the top-1 prediction of at least one
// of the labelled evaluation stimuli (the paper's criterion). This is the
// expensive full-dataset campaign of Table II; like SimulateWith it
// starts each faulty simulation at the fault site by golden-trace replay.
// The golden network is simulated once per sample and the per-layer spike
// records are kept for replay, so memory grows with samples × total
// neurons × steps; the per-fault cost drops from a full-network run per
// sample to the layers at and above the fault site.
func ClassifyWith(golden *snn.Network, faults []Fault, samples []*tensor.Tensor, opts CampaignOptions) (*ClassifyResult, error) {
	start := time.Now()
	for si, s := range samples {
		if _, err := golden.CheckInput(s); err != nil {
			return nil, fmt.Errorf("fault: ClassifyWith: sample %d: %w", si, err)
		}
	}
	if err := Validate(golden, faults); err != nil {
		return nil, err
	}
	res := &ClassifyResult{Critical: make([]bool, len(faults))}
	goldenRecs := make([]*snn.Record, len(samples))
	goldenPred := make([]int, len(samples))
	c := campaign{
		name: "campaign/classify", stride: 64,
		hitKey:       "critical",
		faultCounter: obsFaultsClassified, hitCounter: obsFaultsCritical,
		golden: func() (map[string]any, int64) {
			var fullPerFault int64
			for i, s := range samples {
				goldenRecs[i] = golden.Run(s)
				goldenPred[i] = goldenRecs[i].OutputArgMax()
				fullPerFault += int64(len(golden.Layers)) * int64(goldenRecs[i].Steps)
			}
			return map[string]any{"samples": len(samples), "layers": len(golden.Layers)}, fullPerFault
		},
		simulate: func(inj *Injector, i int) obs.FaultOutcome {
			f := faults[i]
			startLayer := f.StartLayer()
			if opts.FullResim {
				startLayer = 0
			}
			revert := inj.Apply(f)
			defer revert()
			// Criticality has no single first-divergence timestep (it spans
			// samples); DivStep stays -1 and the curve folds these
			// detections into its final point.
			out := obs.FaultOutcome{DivStep: -1}
			for si, s := range samples {
				// A golden record lends its active lists to the replay,
				// start layer 0 included (the stimulus list).
				g := goldenRecs[si]
				if opts.FullResim {
					g = nil
				}
				rec, n := inj.Scratch().RunFrom(startLayer, g, s)
				out.LayerSteps += n
				if rec.OutputArgMax() != goldenPred[si] {
					out.Detected = true
					break
				}
			}
			res.Critical[i] = out.Detected
			return out
		},
	}
	t := c.run(golden, faults, opts)
	res.LayerSteps, res.FullLayerSteps = t.layerSteps, t.fullLayerSteps
	res.Elapsed = time.Since(start)
	return res, nil
}

// escapeEval is what every accuracy-drop evaluation over one labelled
// sample set shares: the golden records and golden-correct count, run
// once, and one injector that each fault is applied to and reverted on.
type escapeEval struct {
	inj           *Injector
	samples       []*tensor.Tensor
	labels        []int
	goldenRecs    []*snn.Record
	correctGolden int
}

func newEscapeEval(golden *snn.Network, samples []*tensor.Tensor, labels []int) *escapeEval {
	e := &escapeEval{inj: NewInjector(golden), samples: samples, labels: labels, goldenRecs: make([]*snn.Record, len(samples))}
	for i, s := range samples {
		e.goldenRecs[i] = golden.Run(s)
		if e.goldenRecs[i].OutputArgMax() == labels[i] {
			e.correctGolden++
		}
	}
	return e
}

// drop returns how much the network's top-1 accuracy on the labelled
// samples drops when fault f is present (positive = worse than golden).
func (e *escapeEval) drop(f Fault) float64 {
	revert := e.inj.Apply(f)
	defer revert()
	correctFaulty := 0
	for i, s := range e.samples {
		rec, _ := e.inj.Scratch().RunFrom(f.StartLayer(), e.goldenRecs[i], s)
		if rec.OutputArgMax() == e.labels[i] {
			correctFaulty++
		}
	}
	return float64(e.correctGolden-correctFaulty) / float64(len(e.samples))
}

// MaxEscapeDrop returns the maximum accuracy drop over the undetected
// critical faults, split into neuron and synapse classes. The golden
// records are run once, on the first escape, and shared by every fault.
func MaxEscapeDrop(golden *snn.Network, faults []Fault, detected, critical []bool, samples []*tensor.Tensor, labels []int) (neuron, synapse float64) {
	var ev *escapeEval
	for i, f := range faults {
		if detected[i] || !critical[i] {
			continue
		}
		if ev == nil {
			ev = newEscapeEval(golden, samples, labels)
		}
		drop := ev.drop(f)
		if f.Kind.IsNeuron() {
			if drop > neuron {
				neuron = drop
			}
		} else if drop > synapse {
			synapse = drop
		}
	}
	return neuron, synapse
}
