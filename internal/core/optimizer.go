package core

import (
	"fmt"
	"math"
	"math/rand"

	ag "github.com/repro/snntest/internal/autograd"
	"github.com/repro/snntest/internal/snn"
	"github.com/repro/snntest/internal/tensor"
	"github.com/repro/snntest/internal/train"
)

// chunkOptimizer runs the within-stage input optimization of Fig. 3: a
// real-valued tensor I_real is pushed through Gumbel-Softmax and a
// straight-through estimator to obtain a binary stimulus, the SNN runs
// differentiably, and Adam adjusts I_real against the stage loss.
//
// A chunkOptimizer is confined to one goroutine. The multi-restart engine
// gives every restart its own optimizer AND its own inference-mode network
// clone: a trained network's projections carry shared autograd weight
// leaves (snn.Projection.ParamLeaves), and concurrent Backward passes
// through a shared leaf would race on its Grad tensor. Network.Clone
// drops the leaves, making concurrent RunGraph calls race-free.
type chunkOptimizer struct {
	net   *snn.Network
	cfg   *Config
	rng   *rand.Rand
	frame int
	steps int // T_in in simulation steps

	leaf  *ag.Node       // I_real, flattened [steps·frame]
	noise *tensor.Tensor // logistic noise, resampled per optimization step
	adam  *train.Adam

	// Buffer-reusing engine state: the arena recycles every per-iteration
	// graph tensor (values, interior gradients, the Gumbel relaxation) at
	// the next forward call; rec, scratch, stim and stepNodes amortize the
	// remaining per-iteration structures. Anything that survives an
	// iteration (the best stimulus and output) is Clone()d onto the heap
	// before the arena resets.
	arena     *tensor.Arena
	rec       *snn.Record
	scratch   *snn.Scratch
	stim      *tensor.Tensor
	stepNodes []*ag.Node
}

// initLogitMean biases the initial I_real logits negative so the first
// binarized stimuli are sparse (≈10–15%% spike density), matching the
// event-stream statistics the benchmark models are trained on; a dense
// 50%% start sits far off that manifold and strangles the gradient signal
// through trained layers.
const initLogitMean = -2.0

// newChunkOptimizer initializes I_real from N(initLogitMean, 1) logits.
func newChunkOptimizer(net *snn.Network, cfg *Config, rng *rand.Rand, steps int) *chunkOptimizer {
	frame := net.InputLen()
	o := &chunkOptimizer{
		net:   net,
		cfg:   cfg,
		rng:   rng,
		frame: frame,
		steps: steps,
		leaf:  ag.Leaf(tensor.RandNormal(rng, initLogitMean, 1, steps*frame)),
		noise: tensor.New(steps * frame),
	}
	o.adam = train.NewAdam([]*ag.Node{o.leaf}, cfg.LR)
	// Adopting the (heap-backed) logits roots arena propagation: every
	// tensor derived from the leaf during forward/backward is drawn from
	// the arena and recycled at the next iteration.
	o.arena = tensor.NewArena()
	o.arena.Adopt(o.leaf.Value)
	return o
}

// grow extends the chunk by extra steps of fresh random logits, keeping
// the already-optimized prefix (the paper increases T_in by β and repeats
// the stage optimization).
func (o *chunkOptimizer) grow(extra int) {
	old := o.leaf.Value.Data()
	grown := tensor.RandNormal(o.rng, initLogitMean, 1, (o.steps+extra)*o.frame)
	copy(grown.Data(), old)
	o.steps += extra
	o.leaf = ag.Leaf(grown)
	o.noise = tensor.New(o.steps * o.frame)
	o.adam = train.NewAdam([]*ag.Node{o.leaf}, o.cfg.LR)
	// The per-duration buffers (stepNodes, stim, rec) are resized on
	// their next use: forward and ToRecordInto check the step count.
	o.arena.Adopt(o.leaf.Value)
}

// forward builds the Gumbel-Softmax → STE → RunGraphFused pipeline for the
// current logits at temperature tau and returns the graph result plus the
// realized binary stimulus. It fails if the relaxation has gone non-finite
// (a diverged I_real under an aggressive learning rate), so every stage
// loop propagates divergence as an error instead of optimizing on NaNs.
func (o *chunkOptimizer) forward(tau float64) (*snn.GraphResult, *tensor.Tensor, error) {
	// Everything the previous iteration's graph allocated is dead by now:
	// the bookkeeping between iterations holds only scalars and heap
	// clones.
	o.arena.Reset()
	if o.cfg.PlainSigmoid {
		o.noise.Zero()
	} else {
		ag.LogisticNoise(o.noise, o.rng.Float64)
	}
	soft := ag.GumbelSigmoid(o.leaf, o.noise, tau)
	if !soft.Value.AllFinite() {
		return nil, nil, fmt.Errorf("core: optimizer diverged: non-finite relaxation values at temperature %g", tau)
	}
	if len(o.stepNodes) != o.steps {
		o.stepNodes = make([]*ag.Node, o.steps)
		o.stim = tensor.New(append([]int{o.steps}, o.net.InShape...)...)
	}
	for t := 0; t < o.steps; t++ {
		frameNode := ag.STE(ag.Slice(soft, t*o.frame, o.frame, o.net.InShape...), 0.5)
		o.stepNodes[t] = frameNode
		copy(o.stim.RawRange(t*o.frame, o.frame), frameNode.Value.Data())
	}
	return o.net.RunGraphFused(o.stepNodes), o.stim, nil
}

// record materializes the graph result's spike trains into the
// optimizer's reusable record.
func (o *chunkOptimizer) record(res *snn.GraphResult) *snn.Record {
	o.rec = res.ToRecordInto(o.net, o.rec)
	return o.rec
}

// traffic returns the hidden-layer spike count the stimulus elicits (the
// fast-path value of L5), through the optimizer's reusable scratch.
func (o *chunkOptimizer) traffic(stim *tensor.Tensor) float64 {
	if o.scratch == nil {
		o.scratch = o.net.NewScratch()
	}
	rec, _ := o.scratch.RunFrom(0, nil, stim)
	return sumHidden(rec)
}

// stageOutcome is the best stimulus visited during one stage pass.
type stageOutcome struct {
	stim      *tensor.Tensor // binary [steps, InShape...]
	loss      float64
	activated map[int]bool // globally indexed neurons spiking ≥ once
	output    *tensor.Tensor
}

// alphas computes the paper's loss weights: the inverse of the expected
// magnitude of each stage-1 loss term, measured on the initial stimulus,
// so every term contributes comparably to the total.
func alphas(vals [4]float64) [4]float64 {
	var a [4]float64
	for i, v := range vals {
		a[i] = 1 / math.Max(math.Abs(v), 1)
	}
	return a
}

// stage1Losses evaluates L1..L4 for the given graph result.
func (o *chunkOptimizer) stage1Losses(res *snn.GraphResult, mask *LayerMask, tdMin float64) [4]*ag.Node {
	var ls [4]*ag.Node
	ls[0] = L1(res)
	ls[1] = L2(res, mask)
	if o.cfg.DisableL3 {
		ls[2] = ag.Const(tensor.Scalar(0))
	} else {
		ls[2] = L3(res, mask, tdMin)
	}
	if o.cfg.DisableL4 {
		ls[3] = ag.Const(tensor.Scalar(0))
	} else {
		ls[3] = L4(o.net, res)
	}
	return ls
}

// runStage1 optimizes the chunk against Σ αᵢLᵢ (Eq. 14) for the stage
// budget and returns the best stimulus visited, ranked by output-layer
// firing (L1) first, newly activated target neurons second, and the
// aggregate loss last.
func (o *chunkOptimizer) runStage1(mask *LayerMask, tdMin float64, offsets []int) (stageOutcome, error) {
	steps := o.cfg.Steps1
	lrSched := o.cfg.lrSchedule(steps)
	tauSched := o.cfg.tauSchedule(steps)

	var alpha [4]float64
	haveAlpha := false
	best := stageOutcome{loss: math.Inf(1)}
	bestL1, bestNew := math.Inf(1), -1

	for s := 0; s < steps; s++ {
		res, stim, err := o.forward(tauSched.At(s))
		if err != nil {
			return stageOutcome{}, err
		}
		ls := o.stage1Losses(res, mask, tdMin)
		if !haveAlpha {
			alpha = alphas([4]float64{
				ls[0].Value.Data()[0], ls[1].Value.Data()[0],
				ls[2].Value.Data()[0], ls[3].Value.Data()[0],
			})
			haveAlpha = true
		}
		total := ag.AddN(
			ag.Scale(ls[0], alpha[0]),
			ag.Scale(ls[1], alpha[1]),
			ag.Scale(ls[2], alpha[2]),
			ag.Scale(ls[3], alpha[3]),
		)
		lossVal := total.Value.Data()[0]
		l1Val := ls[0].Value.Data()[0]

		rec := o.record(res)
		// The activated-neuron set is only materialized as a map when the
		// candidate wins; the ranking itself uses the mapless record scan.
		newCount := countActivatedMasked(rec, mask, o.net)
		// Candidate ranking: firing outputs comes first (a fault effect
		// that cannot reach O^L is undetectable, so L1 dominates), then
		// newly activated target neurons, then the aggregate loss.
		better := l1Val < bestL1 ||
			(l1Val == bestL1 && newCount > bestNew) || //lint:ignore floateq lexicographic tie-break on deterministically recomputed loss values
			(l1Val == bestL1 && newCount == bestNew && lossVal < best.loss) //lint:ignore floateq lexicographic tie-break on deterministically recomputed loss values
		if better {
			bestL1, bestNew = l1Val, newCount
			best = stageOutcome{
				stim:      stim.Clone(),
				loss:      lossVal,
				activated: rec.ActivatedNeurons(offsets, 1),
				output:    rec.Output().Clone(),
			}
		}

		o.adam.ZeroGrad()
		if err := ag.Backward(total); err != nil {
			return stageOutcome{}, err
		}
		o.adam.LR = lrSched.At(s)
		o.adam.Step()
	}
	return best, nil
}

// runStage2 fine-tunes the chunk to minimize L5 while keeping the output
// spike trains fixed at ref (Eq. 15), implemented as a weighted penalty
// with exact-match acceptance: a candidate replaces the incumbent only if
// its output trains equal ref bit-for-bit, it keeps every neuron the
// incumbent activated, and its hidden traffic is strictly lower. Starting
// from the incumbent's own traffic (rather than +∞) prevents a
// degenerate collapse to a near-silent stimulus when the reference output
// carries few spikes.
func (o *chunkOptimizer) runStage2(incumbent stageOutcome, offsets []int) (stageOutcome, error) {
	steps := o.cfg.steps2()
	lrSched := o.cfg.lrSchedule(steps)
	tauSched := o.cfg.tauSchedule(steps)

	best := incumbent
	bestTraffic := o.traffic(incumbent.stim)
	ref := incumbent.output

	for s := 0; s < steps; s++ {
		res, stim, err := o.forward(tauSched.At(s))
		if err != nil {
			return stageOutcome{}, err
		}
		l5 := L5(res)
		mismatch := OutputMismatch(res, ref)
		total := ag.Add(l5, ag.Scale(mismatch, o.cfg.MismatchWeight))

		if mismatch.Value.Data()[0] == 0 && l5.Value.Data()[0] < bestTraffic { //lint:ignore floateq mismatch counts differing binary spikes; exact zero means identical trains
			rec := o.record(res)
			act := rec.ActivatedNeurons(offsets, 1)
			if containsAll(act, incumbent.activated) {
				bestTraffic = l5.Value.Data()[0]
				best = stageOutcome{
					stim:      stim.Clone(),
					loss:      total.Value.Data()[0],
					activated: act,
					output:    rec.Output().Clone(),
				}
			}
		}

		o.adam.ZeroGrad()
		if err := ag.Backward(total); err != nil {
			return stageOutcome{}, err
		}
		o.adam.LR = lrSched.At(s)
		o.adam.Step()
	}
	return best, nil
}

// sumHidden totals the spike counts of every non-output layer.
func sumHidden(rec *snn.Record) float64 {
	total := 0.0
	for li := 0; li < len(rec.Layers)-1; li++ {
		total += tensor.Sum(rec.Layers[li])
	}
	return total
}

// countActivatedMasked counts the neurons inside the mask whose recorded
// spike train carries at least one spike, scanning the record in place
// without materializing the ActivatedNeurons map — run every stage-1
// optimization step.
//
//snn:hotpath
func countActivatedMasked(rec *snn.Record, mask *LayerMask, net *snn.Network) int {
	n := 0
	for li, l := range net.Layers {
		mv := mask.maskFor(li)
		nn := l.NumNeurons()
		data := rec.Layers[li].Data()
		for j := 0; j < nn; j++ {
			if mv != nil && mv.Data()[j] != 1 { //lint:ignore floateq layer masks hold exactly 0 or 1
				continue
			}
			for t := 0; t < rec.Steps; t++ {
				if data[t*nn+j] != 0 { //lint:ignore floateq recorded spikes are exactly 0 or 1
					n++
					break
				}
			}
		}
	}
	return n
}

// containsAll reports whether set contains every member of subset.
func containsAll(set, subset map[int]bool) bool {
	for g := range subset {
		if !set[g] {
			return false
		}
	}
	return true
}
