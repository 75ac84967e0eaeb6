// Package baseline implements the prior-work test-generation methods the
// paper compares against in Table IV. All of them share one skeleton —
// greedily accumulate inputs from a candidate pool until fault coverage
// saturates, verifying every candidate by fault simulation — and differ
// only in where candidates come from:
//
//	[18] El-Sayed et al.  candidates are dataset samples
//	[20] Chen et al.      candidates are random stimuli
//	[17]/[19] Tseng/Chiu  candidates are adversarially perturbed samples
//
// Because the greedy loop scores candidates by fault simulation, its cost
// grows with the fault-model size — the O(M·T_FS) behaviour whose removal
// is the paper's central claim. The FaultSims counter in Result makes
// that cost visible to the benchmark harness.
package baseline

import (
	"math"
	"math/rand"
	"sort"
	"time"

	ag "github.com/repro/snntest/internal/autograd"
	"github.com/repro/snntest/internal/core"
	"github.com/repro/snntest/internal/fault"
	"github.com/repro/snntest/internal/snn"
	"github.com/repro/snntest/internal/tensor"
)

// Config controls the greedy selection loop.
type Config struct {
	// TargetFC stops selection once this fraction of the detectable
	// faults (those covered by the union of all candidates) is reached.
	TargetFC float64
	// MaxInputs bounds the test-set size.
	MaxInputs int
	// Workers for the per-candidate fault simulations (≤ 0: GOMAXPROCS).
	Workers int
}

// DefaultConfig reproduces the prior works' stop criterion: accumulate
// until (almost) no undetected-but-detectable fault remains.
func DefaultConfig() Config {
	return Config{TargetFC: 0.999, MaxInputs: 64}
}

// Result is the outcome of a greedy baseline run.
type Result struct {
	// Selected are the chosen inputs in selection order.
	Selected []*tensor.Tensor
	// Stimulus is the selected inputs joined by core.Assemble, with the
	// optimized test's equal-length zero separators (Eq. 7).
	Stimulus *tensor.Tensor
	// CumulativeFC[k] is the fault coverage after the first k+1 inputs.
	CumulativeFC []float64
	// FaultSims counts fault simulations performed during generation
	// (one per candidate × fault pair evaluated).
	FaultSims int
	// Runtime is the wall-clock generation time.
	Runtime time.Duration
}

// TotalSteps returns the duration of the assembled stimulus in steps.
func (r *Result) TotalSteps() int {
	if r.Stimulus == nil {
		return 0
	}
	return r.Stimulus.Dim(0)
}

// GreedySelect runs the shared greedy engine: every candidate is scored
// by full fault simulation, then candidates are added by maximum marginal
// coverage until the target is reached. This is deliberately the
// expensive prior-work flow.
func GreedySelect(net *snn.Network, faults []fault.Fault, candidates []*tensor.Tensor, cfg Config) (*Result, error) {
	start := time.Now()
	res := &Result{}
	if len(candidates) == 0 || len(faults) == 0 {
		res.Stimulus = net.ZeroInput(1)
		res.Runtime = time.Since(start)
		return res, nil
	}

	// Detection matrix: which faults each candidate detects.
	detects := make([][]bool, len(candidates))
	for ci, cand := range candidates {
		sim, err := fault.SimulateWith(net, faults, cand, fault.CampaignOptions{Workers: cfg.Workers})
		if err != nil {
			return nil, err
		}
		detects[ci] = sim.Detected
		res.FaultSims += len(faults)
	}

	// Detectable universe = union over candidates.
	detectable := 0
	union := make([]bool, len(faults))
	for _, d := range detects {
		for i, v := range d {
			if v && !union[i] {
				union[i] = true
				detectable++
			}
		}
	}
	if detectable == 0 {
		res.Stimulus = net.ZeroInput(1)
		res.Runtime = time.Since(start)
		return res, nil
	}

	covered := make([]bool, len(faults))
	coveredCount := 0
	used := make([]bool, len(candidates))
	maxInputs := cfg.MaxInputs
	if maxInputs <= 0 {
		maxInputs = len(candidates)
	}
	for len(res.Selected) < maxInputs {
		bestC, bestGain := -1, 0
		for ci := range candidates {
			if used[ci] {
				continue
			}
			gain := 0
			for fi, d := range detects[ci] {
				if d && !covered[fi] {
					gain++
				}
			}
			if gain > bestGain {
				bestGain, bestC = gain, ci
			}
		}
		if bestC < 0 {
			break // no candidate adds coverage
		}
		used[bestC] = true
		res.Selected = append(res.Selected, candidates[bestC])
		for fi, d := range detects[bestC] {
			if d && !covered[fi] {
				covered[fi] = true
				coveredCount++
			}
		}
		res.CumulativeFC = append(res.CumulativeFC, float64(coveredCount)/float64(len(faults)))
		if float64(coveredCount) >= cfg.TargetFC*float64(detectable) {
			break
		}
	}

	res.Stimulus = core.Assemble(net, res.Selected)
	res.Runtime = time.Since(start)
	return res, nil
}

// Dataset18 runs the [18]-style compact functional test generation:
// greedy selection over the provided dataset samples.
func Dataset18(net *snn.Network, faults []fault.Fault, samples []*tensor.Tensor, cfg Config) (*Result, error) {
	return GreedySelect(net, faults, samples, cfg)
}

// Random20 runs the [20]-style generation: greedy selection over random
// Bernoulli stimuli of one dataset-sample duration each.
func Random20(net *snn.Network, faults []fault.Fault, pool, steps int, density float64, rng *rand.Rand, cfg Config) (*Result, error) {
	candidates := make([]*tensor.Tensor, pool)
	for i := range candidates {
		candidates[i] = tensor.RandBernoulli(rng, density, append([]int{steps}, net.InShape...)...)
	}
	return GreedySelect(net, faults, candidates, cfg)
}

// Adversarial17 runs the [17]/[19]-style generation: each dataset sample
// is perturbed by flipping the input bits with the largest
// loss-increasing gradients (a spike-domain FGSM analogue), then greedy
// selection runs over the perturbed pool.
func Adversarial17(net *snn.Network, faults []fault.Fault, samples []*tensor.Tensor, labels []int, flipFrac float64, cfg Config) (*Result, error) {
	candidates := make([]*tensor.Tensor, len(samples))
	for i, s := range samples {
		cand, err := AdversarialPerturb(net, s, labels[i], flipFrac)
		if err != nil {
			return nil, err
		}
		candidates[i] = cand
	}
	return GreedySelect(net, faults, candidates, cfg)
}

// AdversarialPerturb flips the flipFrac fraction of input bits with the
// largest gradient magnitude of the classification loss with respect to
// the input, in the loss-increasing direction.
func AdversarialPerturb(net *snn.Network, sample *tensor.Tensor, label int, flipFrac float64) (*tensor.Tensor, error) {
	steps := sample.Dim(0)
	frame := net.InputLen()
	leaf := ag.Leaf(sample.Clone().Reshape(steps * frame))
	stepNodes := make([]*ag.Node, steps)
	for t := 0; t < steps; t++ {
		// STE keeps the forward binary while letting gradients reach the
		// input bits.
		stepNodes[t] = ag.STE(ag.Slice(leaf, t*frame, frame, net.InShape...), 0.5)
	}
	res := net.RunGraph(stepNodes)
	loss := ag.SoftmaxCrossEntropy(res.LayerCounts(res.OutputLayer()), label)
	if err := ag.Backward(loss); err != nil {
		return nil, err
	}

	grad := leaf.Grad.Data()
	type scored struct {
		idx int
		mag float64
	}
	order := make([]scored, 0, len(grad))
	data := sample.Clone()
	dd := data.Data()
	for i, g := range grad {
		// A flip increases the loss when the gradient points away from
		// the current bit value: positive gradient on a 0-bit (set it),
		// negative gradient on a 1-bit (clear it).
		if (dd[i] == 0 && g > 0) || (dd[i] == 1 && g < 0) { //lint:ignore floateq input bits are exactly 0 or 1 by construction
			order = append(order, scored{i, math.Abs(g)})
		}
	}
	sort.Slice(order, func(a, b int) bool { return order[a].mag > order[b].mag })
	flips := int(flipFrac * float64(len(dd)))
	if flips > len(order) {
		flips = len(order)
	}
	for _, s := range order[:flips] {
		dd[s.idx] = 1 - dd[s.idx]
	}
	return data, nil
}
