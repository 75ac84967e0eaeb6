package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/repro/snntest/internal/obs"
	"github.com/repro/snntest/internal/snn"
	"github.com/repro/snntest/internal/tensor"
)

// Generator-level counters; updated at most once per iteration so the
// optimizer's inner loops never touch them.
var (
	obsIterations  = obs.NewCounter("core_iterations_total")
	obsGrowths     = obs.NewCounter("core_growths_total")
	obsRestartsRun = obs.NewCounter("core_restarts_run_total")

	// Live-progress gauges for the telemetry server's /metrics and /runs
	// views; written once per iteration alongside the counters above.
	obsGenIteration = obs.NewGauge("core_generate_iteration_index")
	obsGenActivated = obs.NewGauge("core_generate_activated_neurons")
	obsGenTotal     = obs.NewGauge("core_generate_total_neurons")
)

// IterationStats records one iteration of the outer loop (one generated
// chunk).
type IterationStats struct {
	Iteration      int
	ChunkSteps     int
	Growths        int
	NewActivated   int
	TotalActivated int
	Stage1Loss     float64
	// Restart is the index of the restart that won this iteration's
	// multi-restart selection.
	Restart int
	// RestartsRun is the number of restarts actually evaluated this
	// iteration (< Config.Parallel.Restarts when the run was cancelled
	// mid-iteration).
	RestartsRun int
}

// Result is the output of Generate: the assembled test stimulus and its
// provenance.
type Result struct {
	// Stimulus is the final test input I = {I¹,0¹,…,I^d} (Eq. 7), shape
	// [T_test, InShape...].
	Stimulus *tensor.Tensor
	// Chunks are the optimized inputs I^j before interleaving.
	Chunks []*tensor.Tensor
	// TInMin is the calibrated (or configured) initial chunk duration.
	TInMin int
	// Activated is the final N_A set of globally indexed neurons.
	Activated map[int]bool
	// ActivatedFraction is |N_A| / |N|.
	ActivatedFraction float64
	// Trace holds per-iteration statistics.
	Trace []IterationStats
	// Runtime is the wall-clock test-generation time.
	Runtime time.Duration
}

// TotalSteps returns T_test in simulation steps (Eq. 8).
func (r *Result) TotalSteps() int { return r.Stimulus.Dim(0) }

// DurationSamples expresses the test duration in equivalents of one
// dataset sample of the given length (Table III's "test duration
// (samples)" row).
func (r *Result) DurationSamples(sampleSteps int) float64 {
	return float64(r.TotalSteps()) / float64(sampleSteps)
}

// Generate runs the full test-generation algorithm of Fig. 2 on the
// fault-free network and returns the assembled stimulus. The network
// model stays fixed throughout; only the input is optimized. It is
// GenerateContext under a background context.
func Generate(net *snn.Network, cfg Config) (*Result, error) {
	return GenerateContext(context.Background(), net, cfg)
}

// GenerateContext is Generate with caller-controlled cancellation: the
// paper's t_limit (Config.TimeLimit) is layered onto ctx as a deadline,
// and both the outer chunk loop and every duration-growth loop observe
// ctx instead of polling the wall clock. Cancellation is graceful — the
// partial result generated so far is returned, never an error, exactly
// like hitting t_limit.
//
// Each iteration runs Config.Parallel.Restarts restarts on a bounded
// worker pool; see Parallel for the determinism contract (results depend
// only on the seed, never on the worker count).
func GenerateContext(ctx context.Context, net *snn.Network, cfg Config) (*Result, error) {
	if net.HasFaultOverrides() {
		return nil, fmt.Errorf("core: Generate requires a fault-free network, but %q carries fault overrides", net.Name)
	}
	start := time.Now()
	ctx, cancel := context.WithTimeout(ctx, cfg.TimeLimit)
	defer cancel()
	ctx, sp := obs.Start(ctx, "generate")
	defer sp.End()
	sp.SetAttr("network", net.Name)
	sp.SetAttr("seed", cfg.Seed)
	rng := rand.New(rand.NewSource(cfg.Seed))
	offsets := net.LayerOffsets()
	totalNeurons := net.NumNeurons()
	run := ""
	if obs.RunEventsOn() {
		run = obs.NewRunID("generate")
		obs.EmitRunStart(run, "generate", totalNeurons, map[string]any{
			"network": net.Name,
			"layers":  len(net.Layers),
			"seed":    cfg.Seed,
		})
		obs.ProgressRun(run, "generate", 0, totalNeurons)
		// Tag CPU samples from here down (including pool workers, which
		// inherit goroutine labels at spawn) with this run's id.
		ctx = obs.WithRunLabel(ctx, run)
	}
	if obs.On() {
		obsGenIteration.Set(0)
		obsGenActivated.Set(0)
		obsGenTotal.Set(int64(totalNeurons))
	}

	tInMin := cfg.TInMin
	if tInMin == 0 {
		var err error
		cctx, csp := obs.Start(ctx, "generate/calibrate")
		tInMin, err = CalibrateTInMinParallel(cctx, net, &cfg, rng.Int63())
		csp.SetAttr("t_in_min", tInMin)
		csp.End()
		if err != nil {
			return nil, err
		}
		if tInMin < cfg.TInFloor {
			tInMin = cfg.TInFloor
		}
	}
	tdMin := math.Max(1, float64(tInMin/cfg.TDMinDivisor))

	activated := make(map[int]bool)
	res := &Result{TInMin: tInMin, Activated: activated}

	for iter := 0; iter < cfg.MaxIterations; iter++ {
		if len(activated) >= totalNeurons || ctx.Err() != nil {
			break
		}
		target := make(map[int]bool, totalNeurons-len(activated))
		for g := 0; g < totalNeurons; g++ {
			if !activated[g] {
				target[g] = true
			}
		}
		mask := TargetMask(net, target)

		// The iteration span cannot use defer (it must close before the
		// loop's next pass), so every exit below ends it explicitly.
		ictx, isp := obs.Start(ctx, "generate/iteration")
		isp.SetAttr("iteration", iter)

		winner, err := runRestarts(ictx, net, &cfg, rng.Int63(), tInMin, tdMin, mask, target, offsets)
		if err != nil {
			isp.End()
			return nil, err
		}
		if winner.best.stim == nil {
			isp.End()
			break
		}
		if !cfg.DisableStage2 {
			_, s2sp := obs.Start(ictx, "generate/stage2")
			winner.best, err = winner.opt.runStage2(winner.best, offsets)
			s2sp.End()
			if err != nil {
				isp.End()
				return nil, err
			}
		}
		best := winner.best

		newCount := 0
		for g := range best.activated {
			if !activated[g] {
				activated[g] = true
				newCount++
			}
		}
		res.Chunks = append(res.Chunks, best.stim)
		res.Trace = append(res.Trace, IterationStats{
			Iteration:      iter,
			ChunkSteps:     best.stim.Dim(0),
			Growths:        winner.growths,
			NewActivated:   newCount,
			TotalActivated: len(activated),
			Stage1Loss:     best.loss,
			Restart:        winner.idx,
			RestartsRun:    winner.run,
		})
		if obs.On() {
			obsIterations.Add(1)
			obsGrowths.Add(int64(winner.growths))
			obsRestartsRun.Add(int64(winner.run))
			obsGenIteration.Set(int64(iter + 1))
			obsGenActivated.Set(int64(len(activated)))
			obs.ProgressRun(run, "generate", len(activated), totalNeurons)
			isp.SetAttr("chunk_steps", best.stim.Dim(0))
			isp.SetAttr("new_activated", newCount)
			isp.SetAttr("restart_won", winner.idx)
		}
		isp.End()
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "iteration %d: chunk %d steps, +%d neurons (%d/%d activated, restart %d/%d)\n",
				iter, best.stim.Dim(0), newCount, len(activated), totalNeurons, winner.idx, winner.run)
		}
		if newCount == 0 || float64(newCount) < cfg.MinNewFraction*float64(totalNeurons) {
			// The optimizer can no longer reach the remaining neurons at a
			// useful rate (typically dead or suppressed weights); further
			// iterations would only lengthen the test.
			break
		}
	}

	res.Stimulus = Assemble(net, res.Chunks)
	res.ActivatedFraction = float64(len(activated)) / float64(totalNeurons)
	res.Runtime = time.Since(start)
	if run != "" {
		obs.EmitRunEnd(run, "generate", len(activated), totalNeurons, map[string]any{
			"chunks":     len(res.Chunks),
			"iterations": len(res.Trace),
		})
	}
	return res, nil
}

// runGrowthLoop runs stage 1 and the β-doubling duration growth of
// Section V-C on one optimizer until a new target neuron activates, the
// growth budget is exhausted, or ctx is cancelled. Every restart worker
// runs it.
func runGrowthLoop(ctx context.Context, opt *chunkOptimizer, cfg *Config, mask *LayerMask, tdMin float64, target map[int]bool, offsets []int) (stageOutcome, int, error) {
	beta := cfg.Beta
	growths := 0
	var best stageOutcome
	for {
		var err error
		best, err = opt.runStage1(mask, tdMin, offsets)
		if err != nil {
			return stageOutcome{}, growths, err
		}
		if newTargets(best.activated, target) > 0 || growths >= cfg.MaxGrowth {
			break
		}
		// No new target neuron activated: grow the input by β steps
		// and repeat the stage; β doubles per growth (Section V-C).
		opt.grow(beta)
		beta *= 2
		growths++
		if ctx.Err() != nil {
			break
		}
	}
	return best, growths, nil
}

// newTargets counts activated neurons belonging to the target set.
func newTargets(act, target map[int]bool) int {
	n := 0
	for g := range act {
		if target[g] {
			n++
		}
	}
	return n
}

// Assemble concatenates the chunks interleaved with equal-length zero
// inputs (Eq. 7): {I¹, 0¹, I², 0², …, 0^{d-1}, I^d}. The zero separators
// let every membrane decay back to rest, the paper's "sleep" reset
// between chunks. The total duration follows Eq. 8.
func Assemble(net *snn.Network, chunks []*tensor.Tensor) *tensor.Tensor {
	if len(chunks) == 0 {
		return net.ZeroInput(1)
	}
	frame := net.InputLen()
	total := 0
	for i, c := range chunks {
		total += c.Dim(0)
		if i < len(chunks)-1 {
			total += c.Dim(0) // the zero separator 0^j has duration T_in^j
		}
	}
	out := tensor.New(append([]int{total}, net.InShape...)...)
	off := 0
	for i, c := range chunks {
		copy(out.RawRange(off*frame, c.Len()), c.Data())
		off += c.Dim(0)
		if i < len(chunks)-1 {
			off += c.Dim(0) // zero separator: already zero-filled
		}
	}
	return out
}

// calibCandidate is the evaluation of one candidate duration during
// T_in,min calibration.
type calibCandidate struct {
	minL1   float64
	success bool // the optimized input made every output neuron fire
}

// calibrateCandidate optimizes min L1 alone for the candidate duration t
// over the given step budget and reports whether full output firing was
// reached, plus the lowest L1 visited. Forward divergence and backward
// errors propagate like every other optimization path.
func calibrateCandidate(net *snn.Network, cfg *Config, rng *rand.Rand, t, budget int) (calibCandidate, error) {
	opt := newChunkOptimizer(net, cfg, rng, t)
	lrSched := cfg.lrSchedule(budget)
	tauSched := cfg.tauSchedule(budget)
	c := calibCandidate{minL1: math.Inf(1)}
	for s := 0; s < budget; s++ {
		res, _, err := opt.forward(tauSched.At(s))
		if err != nil {
			return c, err
		}
		l1 := L1(res)
		if l1.Value.Data()[0] == 0 { //lint:ignore floateq L1 sums binary spikes; exact zero means no output spike at all
			c.success = true
			c.minL1 = 0
			return c, nil
		}
		if l1.Value.Data()[0] < c.minL1 {
			c.minL1 = l1.Value.Data()[0]
		}
		opt.adam.ZeroGrad()
		if err := opt.backward(l1); err != nil {
			return c, err
		}
		opt.adam.LR = lrSched.At(s)
		opt.adam.Step()
	}
	return c, nil
}

// calibrationBudget returns the per-candidate optimization step budget.
func calibrationBudget(cfg *Config) int {
	budget := cfg.Steps1 / 2
	if budget < 60 {
		budget = 60
	}
	return budget
}

// maxCalibrationDuration caps the doubling search of T_in,min
// calibration: candidate durations are 1, 2, 4, …, maxCalibrationDuration.
const maxCalibrationDuration = 512
