package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	ag "github.com/repro/snntest/internal/autograd"
	"github.com/repro/snntest/internal/snn"
	"github.com/repro/snntest/internal/tensor"
)

// generationPass is one side of the generation-graph differential: the
// chunk optimizer's forward pipeline (GumbelSigmoid → per-step
// STE(Slice) → graph simulation), every loss the stage loops
// differentiate, and the root one Backward ran from.
type generationPass struct {
	res    *snn.GraphResult
	inputs []*ag.Node // the per-step STE frames fed to the simulation
	losses []*ag.Node // L1, L2, L3, L4, L5, OutputMismatch, the root
}

// generationRoot builds a Backward root from the six losses of a pass;
// the differential runs each of them, as the accumulation order inside
// the simulation follows the order in which the root reaches it.
type generationRoot struct {
	name  string
	build func(ls []*ag.Node) *ag.Node
}

// generationRoots are the root shapes the generation engine backpropagates
// from: stage 1's weighted sum led by L1 (here with every loss in it),
// calibration's L1 alone, and stage 2's L5 plus weighted OutputMismatch,
// which reaches the network layer by layer from the input instead of
// through the output layer.
var generationRoots = []generationRoot{
	{"stage 1", func(ls []*ag.Node) *ag.Node { return ag.AddN(ls...) }},
	{"calibration", func(ls []*ag.Node) *ag.Node { return ls[0] }},
	{"stage 2", func(ls []*ag.Node) *ag.Node { return ag.Add(ls[4], ag.Scale(ls[5], 4)) }},
}

// runGenerationPass builds the generation graph on leaf — through
// RunGraphFused when fused, the composed RunGraph otherwise — and
// backpropagates root's combination of L1–L5 and OutputMismatch into
// leaf.Grad and every per-step input gradient.
func runGenerationPass(t testing.TB, net *snn.Network, leaf *ag.Node, noise *tensor.Tensor, tau float64, mask *LayerMask, ref *tensor.Tensor, root generationRoot, fused bool) generationPass {
	t.Helper()
	frame := net.InputLen()
	soft := ag.GumbelSigmoid(leaf, noise, tau)
	p := generationPass{inputs: make([]*ag.Node, leaf.Value.Len()/frame)}
	for s := range p.inputs {
		p.inputs[s] = ag.STE(ag.Slice(soft, s*frame, frame, net.InShape...), 0.5)
	}
	if fused {
		p.res = net.RunGraphFused(p.inputs)
	} else {
		p.res = net.RunGraph(p.inputs)
	}
	p.losses = []*ag.Node{L1(p.res), L2(p.res, mask), L3(p.res, mask, 2), L4(net, p.res), L5(p.res), OutputMismatch(p.res, ref)}
	p.losses = append(p.losses, root.build(p.losses))
	leaf.ZeroGrad()
	if err := ag.Backward(p.losses[len(p.losses)-1]); err != nil {
		t.Fatal(err)
	}
	return p
}

// requireBitsEqual fails unless got and want hold the same float64 bit
// patterns.
func requireBitsEqual(t testing.TB, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs oracle %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: %v vs oracle %v", what, i, got[i], want[i])
		}
	}
}

// checkGenerationGraph runs iters optimization steps of the generation
// graph on two copies of the same logits: the production side adopted
// into a tensor.Arena (RunGraphFused's kernel, Reset before every step)
// and the oracle side a heap clone (composed RunGraph). At step growAt
// both leaves are replaced by longer ones keeping the optimized prefix,
// the production one re-adopted into the same arena, as
// chunkOptimizer.grow does. Every step backpropagates from each of
// generationRoots on both sides, and every spike frame, loss value and
// input gradient must match bit for bit; the descent step then follows
// the stage-1 root's gradient. It returns the number of non-zero
// logits-gradient entries summed over all steps and roots.
func checkGenerationGraph(t testing.TB, net *snn.Network, rng *rand.Rand, steps int, tau float64, iters, growAt int) int {
	t.Helper()
	frame := net.InputLen()
	arena := tensor.NewArena()
	prod := ag.Leaf(tensor.RandNormal(rng, initLogitMean, 1, steps*frame))
	arena.Adopt(prod.Value)
	oracle := ag.Leaf(prod.Value.Clone())
	target := map[int]bool{}
	for g := 0; g < net.NumNeurons(); g++ {
		if rng.Intn(2) == 0 {
			target[g] = true
		}
	}
	mask := TargetMask(net, target)
	nonZero := 0
	for it := 0; it < iters; it++ {
		if it == growAt {
			extra := 1 + rng.Intn(4)
			grown := tensor.RandNormal(rng, initLogitMean, 1, (steps+extra)*frame)
			copy(grown.Data(), prod.Value.Data())
			steps += extra
			oracle = ag.Leaf(grown.Clone())
			prod = ag.Leaf(grown)
			arena.Adopt(prod.Value)
		}
		noise := tensor.New(steps * frame)
		ag.LogisticNoise(noise, rng.Float64)
		ref := tensor.RandBernoulli(rng, 0.3, steps, net.OutputLen())

		// The stage-1 root runs last, so the leaves keep its gradient for
		// the descent step.
		for i := len(generationRoots) - 1; i >= 0; i-- {
			root := generationRoots[i]
			arena.Reset()
			got := runGenerationPass(t, net, prod, noise, tau, mask, ref, root, true)
			want := runGenerationPass(t, net, oracle, noise, tau, mask, ref, root, false)
			if got.res.Spikes[0][0].Value.Arena() != arena || want.res.Spikes[0][0].Value.Arena() != nil {
				t.Fatal("production graph must be arena-backed and the oracle graph heap-backed")
			}
			at := fmt.Sprintf("iteration %d, %s root", it, root.name)
			for li := range want.res.Spikes {
				for s, node := range want.res.Spikes[li] {
					requireBitsEqual(t, fmt.Sprintf("%s: layer %d spikes at t=%d", at, li, s), got.res.Spikes[li][s].Value.Data(), node.Value.Data())
				}
			}
			for i, l := range want.losses {
				name := []string{"L1", "L2", "L3", "L4", "L5", "OutputMismatch", "root"}[i]
				requireBitsEqual(t, fmt.Sprintf("%s: %s", at, name), got.losses[i].Value.Data(), l.Value.Data())
			}
			for s, in := range want.inputs {
				requireBitsEqual(t, fmt.Sprintf("%s: input gradient at t=%d", at, s), got.inputs[s].Grad.Data(), in.Grad.Data())
			}
			requireBitsEqual(t, at+": logits gradient", prod.Grad.Data(), oracle.Grad.Data())
			for _, g := range prod.Grad.Data() {
				if g != 0 {
					nonZero++
				}
			}
		}

		// A fixed descent step on both copies; the next step's graph
		// starts from the updated logits.
		for _, leaf := range []*ag.Node{prod, oracle} {
			v := leaf.Value.Data()
			for i, g := range leaf.Grad.Data() {
				v[i] -= 0.5 * g
			}
		}
	}
	return nonZero
}

// TestEquivGenerationGraph pins the generation engine's graph to the one
// oracle it keeps: on every fixture, four optimization steps (one of them
// a growth) of the RunGraphFused kernel must be bitwise identical to the
// composed heap RunGraph in spike frames, losses and input gradients,
// from every root shape the engine uses — and the gradients must not be
// vacuously zero. Two cases run in the benchmark's regime: NMNIST with
// trained weights at 256 steps, the duration its calibration picks, and
// the recurrent SHD net at 64 steps.
func TestEquivGenerationGraph(t *testing.T) {
	cases := []struct {
		name, benchmark, weights string
		steps, iters, growAt     int
	}{
		{name: "nmnist", benchmark: "nmnist", steps: 8, iters: 4, growAt: 2},
		{name: "ibm-gesture", benchmark: "ibm-gesture", steps: 8, iters: 4, growAt: 2},
		{name: "shd", benchmark: "shd", steps: 8, iters: 4, growAt: 2},
		{name: "nmnist-trained-256", benchmark: "nmnist", weights: "testdata/nmnist-tiny-seed7.gob", steps: 256, iters: 2, growAt: -1},
		{name: "shd-64", benchmark: "shd", steps: 64, iters: 2, growAt: 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			seed := int64(33)
			if c.weights != "" {
				seed = 7
			}
			net := must(snn.Build(c.benchmark, rand.New(rand.NewSource(seed)), snn.ScaleTiny))
			if c.weights != "" {
				if err := net.LoadWeightsFile(c.weights); err != nil {
					t.Fatal(err)
				}
			}
			n := checkGenerationGraph(t, net.Clone(), rand.New(rand.NewSource(5)), c.steps, 0.7, c.iters, c.growAt)
			if n == 0 {
				t.Fatal("every logits gradient was zero: the gradient comparison is vacuous")
			}
			t.Logf("%d non-zero logits-gradient entries over %d steps", n, c.iters)
		})
	}
}

// FuzzRunGraphFused differentiates the two sides of
// TestEquivGenerationGraph over the fixture, its builder seed, the chunk
// duration (1–16 steps), the relaxation temperature and the noise seed,
// three optimization steps with a growth at the second, from every root
// shape. Its seeds are the committed corpus under
// testdata/fuzz/FuzzRunGraphFused, at least one per fixture.
func FuzzRunGraphFused(f *testing.F) {
	f.Fuzz(func(t *testing.T, fixture byte, builderSeed int64, stepsB byte, tau float64, noiseSeed int64) {
		benchmark := []string{"nmnist", "ibm-gesture", "shd"}[int(fixture)%3]
		net := must(snn.Build(benchmark, rand.New(rand.NewSource(builderSeed)), snn.ScaleTiny)).Clone()
		if math.IsNaN(tau) || math.IsInf(tau, 0) {
			tau = 1
		}
		tau = 0.05 + math.Mod(math.Abs(tau), 2)
		checkGenerationGraph(t, net, rand.New(rand.NewSource(noiseSeed)), 1+int(stepsB)%16, tau, 3, 1)
	})
}
