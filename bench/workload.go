package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"time"

	"github.com/repro/snntest/internal/core"
	"github.com/repro/snntest/internal/experiments"
	"github.com/repro/snntest/internal/fault"
	"github.com/repro/snntest/internal/obs"
	"github.com/repro/snntest/internal/snn"
	"github.com/repro/snntest/internal/tensor"
)

// workers is GOMAXPROCS, the campaign worker count and the generator's
// restart pool size: the load of one process on a two-core machine.
const workers = 2

// fixtureSeed builds and trains every workload's network, draws its
// dataset and seeds its test generator. The -seed flag permutes the fault
// list instead (see README.md, "Seeds"): across generator seeds the
// calibrated T_in,min of one network ranges from 8 to 512 steps, and
// across evaluation-sample seeds one labelling campaign's time doubles,
// so seeding either would change the work of a rep from seed to seed.
const fixtureSeed = 7

// workload is one benchmark body.
type workload struct {
	name      string
	benchmark string // the experiments benchmark that builds the network
	// stride subsamples the fault universe so that one rep of the
	// recurrent net stays within a few seconds.
	stride int
	// campaign selects the rep body: criticality labelling and
	// verification of a stimulus generated in set-up, instead of the
	// whole test-generation pipeline.
	campaign bool
}

// workloads are the benchmark's bodies, in the order -workload all runs
// them. Why each exists is recorded in BENCHMARK.json and README.md.
var workloads = []workload{
	{name: "testgen-nmnist", benchmark: "nmnist", stride: 1},
	{name: "campaign-ibm", benchmark: "ibm-gesture", stride: 1, campaign: true},
	{name: "campaign-shd", benchmark: "shd", stride: 8, campaign: true},
}

// findWorkload returns the workload with the given name.
func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v or all)", name, names)
}

// fixture is the product of one set-up.
type fixture struct {
	w       workload
	net     *snn.Network
	cfg     core.Config
	faults  []fault.Fault
	samples []*tensor.Tensor // the test split, labelled evaluation samples
	// labels are the criticality labels computed in set-up (testgen).
	labels *fault.ClassifyResult
	// gen is the set-up test generation whose compacted stimulus every rep
	// verifies (campaign).
	gen *generation
}

// generation is one run of the paper's test-generation pipeline.
type generation struct {
	tInMin                       int // after the TInFloor clamp
	raw, compacted               *core.Result
	stats                        core.CompactionStats
	calibrate, generate, compact time.Duration
}

// outcome is what one rep produced.
type outcome struct {
	stimulus *tensor.Tensor
	gen      *generation           // testgen
	labels   *fault.ClassifyResult // campaign
	sim      *fault.SimResult
	classify time.Duration
	verify   time.Duration
}

// timed runs fn under a span named name, so that the program's spans nest
// beneath it through ctx, and returns fn's wall time.
func timed(ctx context.Context, name string, fn func(context.Context) error) (time.Duration, error) {
	ctx, sp := obs.Start(ctx, name)
	defer sp.End()
	t0 := time.Now()
	err := fn(ctx)
	return time.Since(t0), err
}

// setup builds, trains and enumerates the workload's fixture, permutes
// the fault list by the workload seed, and computes the criticality
// labels (testgen) or the stored test stimulus (campaign). It adds its
// timings to m.
func setup(ctx context.Context, rc runConfig, m metricSet) (*fixture, error) {
	ctx, sp := obs.Start(ctx, "bench.setup")
	defer sp.End()
	start := time.Now()
	w := rc.w
	opts := experiments.ScaledOptions(snn.ScaleTiny, fixtureSeed)
	opts.Workers = workers
	opts.FaultStride = w.stride
	// Restarts=2 keeps the multi-restart engine on: the serial Restarts≤1
	// path may be deleted without shifting this benchmark's outputs.
	opts.GenConfig.Parallel = core.Parallel{Restarts: 2, Workers: workers}
	// TestConfig's two-minute limit is a context deadline: on a slow host
	// it would cut generation short and change the outputs.
	opts.GenConfig.TimeLimit = time.Hour
	if rc.smoke {
		opts.TrainEpochs = 1
		opts.FaultStride *= 16
		opts.GenConfig.Steps1 = 8
		opts.GenConfig.MaxIterations = 2
	}

	f := &fixture{w: w, cfg: opts.GenConfig}
	var pipe *experiments.Pipeline
	build, err := timed(ctx, "bench.build", func(context.Context) (err error) {
		pipe, err = experiments.NewPipeline(w.benchmark, opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	f.net = pipe.Net
	m.add("experiments.new_pipeline_s", "s", build.Seconds())
	m.add("train.train_s", "s", pipe.TrainTime.Seconds())

	t0 := time.Now()
	f.faults = fault.SampleUniverse(f.net, fault.DefaultOptions(), opts.FaultStride)
	m.add("fault.enumerate_s", "s", time.Since(t0).Seconds())
	rand.New(rand.NewSource(rc.seed)).Shuffle(len(f.faults), func(i, j int) {
		f.faults[i], f.faults[j] = f.faults[j], f.faults[i]
	})
	f.samples, _ = pipe.Data.Inputs("test")

	if w.campaign {
		if f.gen, err = f.generate(ctx); err != nil {
			return nil, err
		}
		addGeneration(m, f.gen)
	} else {
		var d time.Duration
		if f.labels, d, err = f.classify(ctx); err != nil {
			return nil, err
		}
		addClassify(m, f.labels, d)
	}
	m.add("setup_s", "s", time.Since(start).Seconds())
	return f, nil
}

// rep runs one repetition of the workload body.
func (f *fixture) rep(ctx context.Context) (*outcome, error) {
	ctx, sp := obs.Start(ctx, "bench.rep")
	defer sp.End()
	o := &outcome{}
	var err error
	if f.w.campaign {
		o.stimulus = f.gen.compacted.Stimulus
		if o.labels, o.classify, err = f.classify(ctx); err != nil {
			return nil, err
		}
	} else {
		if o.gen, err = f.generate(ctx); err != nil {
			return nil, err
		}
		o.stimulus = o.gen.compacted.Stimulus
	}
	if o.sim, o.verify, err = f.verify(ctx, o.stimulus); err != nil {
		return nil, err
	}
	return o, nil
}

// generate calibrates T_in,min, generates with it pinned, and compacts.
func (f *fixture) generate(ctx context.Context) (*generation, error) {
	cfg := f.cfg
	g := &generation{}
	// GenerateContext draws its calibration seed first from the master
	// stream; drawing it the same way calibrates the same T_in,min.
	calibSeed := rand.New(rand.NewSource(cfg.Seed)).Int63()
	var err error
	if g.calibrate, err = timed(ctx, "bench.calibrate", func(ctx context.Context) (err error) {
		g.tInMin, err = core.CalibrateTInMinParallel(ctx, f.net, &cfg, calibSeed)
		return err
	}); err != nil {
		return nil, err
	}
	// The floor GenerateContext applies after its own calibration.
	g.tInMin = max(g.tInMin, cfg.TInFloor)
	cfg.TInMin = g.tInMin
	if g.generate, err = timed(ctx, "bench.generate", func(ctx context.Context) (err error) {
		g.raw, err = core.GenerateContext(ctx, f.net, cfg)
		return err
	}); err != nil {
		return nil, err
	}
	if g.compact, err = timed(ctx, "bench.compact", func(ctx context.Context) (err error) {
		g.compacted, g.stats, err = core.CompactContext(ctx, f.net, g.raw, f.faults, workers)
		return err
	}); err != nil {
		return nil, err
	}
	return g, nil
}

// classify labels the fault list against the evaluation samples.
func (f *fixture) classify(ctx context.Context) (*fault.ClassifyResult, time.Duration, error) {
	var res *fault.ClassifyResult
	d, err := timed(ctx, "bench.classify", func(ctx context.Context) (err error) {
		res, err = fault.ClassifyWith(f.net, f.faults, f.samples, fault.CampaignOptions{Workers: workers, Context: ctx})
		return err
	})
	return res, d, err
}

// verify runs the verification campaign of the stimulus.
func (f *fixture) verify(ctx context.Context, stim *tensor.Tensor) (*fault.SimResult, time.Duration, error) {
	var res *fault.SimResult
	d, err := timed(ctx, "bench.verify", func(ctx context.Context) (err error) {
		res, err = fault.SimulateWith(f.net, f.faults, stim, fault.CampaignOptions{Workers: workers, Context: ctx})
		return err
	})
	return res, d, err
}

// generation returns the test generation behind o: its own for testgen,
// the set-up one for a campaign.
func (f *fixture) generation(o *outcome) *generation {
	if o.gen != nil {
		return o.gen
	}
	return f.gen
}

// criticality returns the labels o is scored against.
func (f *fixture) criticality(o *outcome) *fault.ClassifyResult {
	if o.labels != nil {
		return o.labels
	}
	return f.labels
}

// diff reports how o departs from the reference outcome ref, or "" when
// it reproduces ref's stimulus, detected set and critical set bit for bit.
func (o *outcome) diff(ref *outcome) string {
	if a, b := fingerprint(o.stimulus), fingerprint(ref.stimulus); a != b {
		return fmt.Sprintf("stimulus fingerprint %016x, reference %016x", a, b)
	}
	if !slices.Equal(o.sim.Detected, ref.sim.Detected) {
		return fmt.Sprintf("detected set differs (%d faults, reference %d)", o.sim.NumDetected(), ref.sim.NumDetected())
	}
	if o.labels != nil && !slices.Equal(o.labels.Critical, ref.labels.Critical) {
		return "critical set differs"
	}
	return ""
}

// fingerprint is FNV-64a over the bits of every element of t.
func fingerprint(t *tensor.Tensor) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range t.Data() {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:]) // a hash.Hash write never fails
	}
	return h.Sum64()
}

// addGeneration records a test generation's timings.
func addGeneration(m metricSet, g *generation) {
	m.add("core.calibrate_s", "s", g.calibrate.Seconds())
	m.add("core.generate_s", "s", g.generate.Seconds())
	m.add("core.compact_s", "s", g.compact.Seconds())
}

// addClassify records a labelling campaign's timings.
func addClassify(m metricSet, r *fault.ClassifyResult, d time.Duration) {
	m.add("fault.classify_s", "s", d.Seconds())
	m.add("fault.classify_ns_per_layer_step", "ns", float64(d.Nanoseconds())/float64(r.LayerSteps))
}

// addVerify records a verification campaign's timings.
func addVerify(m metricSet, faults int, r *fault.SimResult, d time.Duration) {
	m.add("verify_faults_per_s", "faults/s", float64(faults)/d.Seconds())
	m.add("fault.verify_s", "s", d.Seconds())
	m.add("fault.verify_ns_per_layer_step", "ns", float64(d.Nanoseconds())/float64(r.LayerSteps))
}

// exactMetrics are outputs of the program rather than timings. At one
// seed, a change that leaves the algorithm alone reproduces each exactly.
var exactMetrics = []string{
	"core.t_in_min", "core.iterations", "core.growths", "core.chunks",
	"core.compact_dropped_chunks", "core.test_steps", "core.activated_pct",
	"fault.detected", "fault.critical", "fault.critical_fc_pct",
	"fault.verify_layer_steps", "fault.verify_full_layer_steps",
	"fault.classify_layer_steps", "fault.classify_full_layer_steps",
}

// addExact records the exact outputs of the reference outcome.
func (f *fixture) addExact(m metricSet, ref *outcome) error {
	g, labels := f.generation(ref), f.criticality(ref)
	growths := 0
	for _, it := range g.raw.Trace {
		growths += it.Growths
	}
	cov, err := fault.Compute(f.faults, ref.sim.Detected, labels.Critical)
	if err != nil {
		return err
	}
	critical := 0
	for _, c := range labels.Critical {
		if c {
			critical++
		}
	}
	m.add("core.t_in_min", "steps", float64(g.tInMin))
	m.add("core.iterations", "count", float64(len(g.raw.Trace)))
	m.add("core.growths", "count", float64(growths))
	m.add("core.chunks", "count", float64(g.stats.ChunksBefore))
	m.add("core.compact_dropped_chunks", "count", float64(g.stats.ChunksBefore-g.stats.ChunksAfter))
	m.add("core.test_steps", "steps", float64(g.compacted.TotalSteps()))
	m.add("core.activated_pct", "%", 100*g.raw.ActivatedFraction)
	m.add("fault.detected", "count", float64(ref.sim.NumDetected()))
	m.add("fault.critical", "count", float64(critical))
	m.add("fault.critical_fc_pct", "%", 100*cov.CriticalFC())
	m.add("fault.verify_layer_steps", "count", float64(ref.sim.LayerSteps))
	m.add("fault.verify_full_layer_steps", "count", float64(ref.sim.FullLayerSteps))
	m.add("fault.classify_layer_steps", "count", float64(labels.LayerSteps))
	m.add("fault.classify_full_layer_steps", "count", float64(labels.FullLayerSteps))
	return nil
}
