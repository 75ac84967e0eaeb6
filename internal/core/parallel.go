package core

import (
	"context"
	"math"
	"math/rand"
	"sync/atomic"

	"github.com/repro/snntest/internal/obs"
	"github.com/repro/snntest/internal/pool"
	"github.com/repro/snntest/internal/snn"
)

// restartOutcome is the result of one restart of the multi-restart stage-1
// engine: the optimizer that produced it (kept so the winner can continue
// into stage 2), the best stage-1 outcome, and provenance for Trace.
type restartOutcome struct {
	opt     *chunkOptimizer
	best    stageOutcome
	growths int
	idx     int // winning restart index
	run     int // restarts actually evaluated
}

// runRestarts executes K = cfg.Parallel.Restarts independent stage-1
// optimizations of the same target set and returns the winner. Restart r
// draws every random number from rand.NewSource(iterSeed + r) and runs the
// growth loop on its own inference-mode clone of net (chunkOptimizer
// documents why sharing a trained net across goroutines would race).
//
// The winner is chosen by a fixed, index-ordered tie-break — lowest
// stage-1 loss, then most newly activated target neurons, then lowest
// restart index — so the result is a pure function of iterSeed regardless
// of worker count or completion order. Restarts not yet started when ctx
// is cancelled are skipped and excluded from the RestartsRun count.
func runRestarts(ctx context.Context, net *snn.Network, cfg *Config, iterSeed int64, tInMin int, tdMin float64, mask *LayerMask, target map[int]bool, offsets []int) (restartOutcome, error) {
	k := cfg.Parallel.restarts()
	type slot struct {
		opt     *chunkOptimizer
		best    stageOutcome
		growths int
		done    bool
		err     error
	}
	slots := make([]slot, k)
	pool.Run(cfg.Parallel.Workers, k, func(r int) {
		if ctx.Err() != nil {
			return
		}
		rctx, rsp := obs.Start(ctx, "generate/restart")
		rsp.SetAttr("restart", r)
		rng := rand.New(rand.NewSource(iterSeed + int64(r)))
		opt := newChunkOptimizer(net.Clone(), cfg, rng, tInMin)
		best, growths, err := runGrowthLoop(rctx, opt, cfg, mask, tdMin, target, offsets)
		rsp.SetAttr("growths", growths)
		rsp.End()
		slots[r] = slot{opt: opt, best: best, growths: growths, done: true, err: err}
	})

	winner := restartOutcome{idx: -1}
	bestLoss, bestNew := math.Inf(1), -1
	for r := range slots {
		s := &slots[r]
		if !s.done {
			continue
		}
		if s.err != nil {
			return restartOutcome{}, s.err
		}
		winner.run++
		n := newTargets(s.best.activated, target)
		if s.best.loss < bestLoss || (s.best.loss == bestLoss && n > bestNew) { //lint:ignore floateq lexicographic tie-break on deterministically recomputed loss values
			bestLoss, bestNew = s.best.loss, n
			winner.opt, winner.best, winner.growths, winner.idx = s.opt, s.best, s.growths, r
		}
	}
	return winner, nil
}

// CalibrateTInMinParallel finds the paper's T_in,min: the smallest input
// duration for which optimizing min L1 alone makes every output neuron
// fire. Candidate durations 1, 2, 4, …, maxCalibrationDuration are
// optimized on a pool of cfg.Parallel.Workers goroutines, candidate i
// seeded with calibSeed + i, and the shortest fully successful duration
// wins. If none succeeds, the duration with the lowest L1 (shortest on
// ties) is returned, leaving the rest to the full stage-1 optimization
// with its larger budget.
//
// Candidates above the lowest one known to succeed can no longer be
// selected: they are skipped, and one already running returns at its
// next optimizer step. Every candidate below the first success is
// still evaluated in full, so the outcome depends only on calibSeed,
// never on the worker count or the claim order. A pool of several
// workers claims the longest candidates first: candidate cost grows with
// the duration, and starting the 512-step candidate last left it running
// alone after every shorter one had finished. A single worker claims the
// shortest first, which skips every candidate above the first success.
func CalibrateTInMinParallel(ctx context.Context, net *snn.Network, cfg *Config, calibSeed int64) (int, error) {
	budget := calibrationBudget(cfg)
	n := 0
	for t := 1; t <= maxCalibrationDuration; t *= 2 {
		n++
	}
	type slot struct {
		cand calibCandidate
		done bool
		err  error
	}
	slots := make([]slot, n)
	var firstSuccess atomic.Int64
	firstSuccess.Store(int64(n))
	workers := pool.Size(cfg.Parallel.Workers, n)
	pool.Run(workers, n, func(i int) {
		if workers > 1 {
			i = n - 1 - i
		}
		above := func() bool { return int64(i) > firstSuccess.Load() }
		if ctx.Err() != nil || above() {
			return
		}
		_, csp := obs.Start(ctx, "generate/calibrate/candidate")
		csp.SetAttr("duration", 1<<i)
		rng := rand.New(rand.NewSource(calibSeed + int64(i)))
		cand, err := calibrateCandidate(net.Clone(), cfg, rng, 1<<i, budget, above)
		csp.SetAttr("steps", cand.steps)
		csp.SetAttr("success", cand.success)
		csp.End()
		slots[i] = slot{cand: cand, done: true, err: err}
		if err == nil && cand.success {
			for {
				cur := firstSuccess.Load()
				if int64(i) >= cur || firstSuccess.CompareAndSwap(cur, int64(i)) {
					break
				}
			}
		}
	})

	bestT, bestL1 := maxCalibrationDuration, math.Inf(1)
	for i := range slots {
		s := &slots[i]
		if !s.done {
			continue
		}
		if s.err != nil {
			return 0, s.err
		}
		if s.cand.success {
			return 1 << i, nil
		}
		if s.cand.minL1 < bestL1 {
			bestL1, bestT = s.cand.minL1, 1<<i
		}
	}
	return bestT, nil
}
