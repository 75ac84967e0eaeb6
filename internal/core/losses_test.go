package core

import (
	"math"
	"math/rand"
	"testing"

	ag "github.com/repro/snntest/internal/autograd"
	"github.com/repro/snntest/internal/snn"
	"github.com/repro/snntest/internal/tensor"
)

// smallNet builds a 2-layer dense network used across testgen tests.
func smallNet(seed int64) *snn.Network {
	rng := rand.New(rand.NewSource(seed))
	l1 := must(snn.NewLayer("h", must(snn.NewDenseProj(tensor.RandNormal(rng, 0.25, 0.5, 5, 4))), snn.DefaultLIF()))
	l2 := must(snn.NewLayer("out", must(snn.NewDenseProj(tensor.RandNormal(rng, 0.25, 0.5, 3, 5))), snn.DefaultLIF()))
	return must(snn.NewNetwork("small", []int{4}, 1.0, l1, l2))
}

// graphRun runs the net differentiably on a binary stimulus.
func graphRun(net *snn.Network, stim *tensor.Tensor) *snn.GraphResult {
	steps := stim.Dim(0)
	frame := net.InputLen()
	nodes := make([]*ag.Node, steps)
	for t := 0; t < steps; t++ {
		nodes[t] = ag.Const(tensor.FromSlice(stim.Data()[t*frame:(t+1)*frame], net.InShape...))
	}
	return net.RunGraph(nodes)
}

func TestL1ZeroWhenAllOutputsFire(t *testing.T) {
	net := smallNet(1)
	stim := tensor.RandBernoulli(rand.New(rand.NewSource(2)), 0.9, 20, 4)
	res := graphRun(net, stim)
	counts := res.LayerCounts(res.OutputLayer()).Value
	allFire := tensor.Min(counts) >= 1
	l1 := L1(res).Value.Data()[0]
	if allFire && l1 != 0 {
		t.Errorf("L1 = %g with all outputs firing", l1)
	}
	if !allFire && l1 == 0 {
		t.Errorf("L1 = 0 with silent outputs (counts %v)", counts)
	}
}

func TestL1CountsSilentOutputs(t *testing.T) {
	net := smallNet(3)
	res := graphRun(net, net.ZeroInput(10))
	// Zero input → zero output spikes → L1 = N^L · 1 = 3.
	if l1 := L1(res).Value.Data()[0]; l1 != 3 {
		t.Errorf("L1 on zero stimulus = %g, want 3", l1)
	}
}

func TestL2MaskRestriction(t *testing.T) {
	net := smallNet(4)
	res := graphRun(net, net.ZeroInput(10))
	full := FullMask(net)
	if l2 := L2(res, full).Value.Data()[0]; l2 != 8 {
		t.Errorf("full-mask L2 on zero stimulus = %g, want 8 (5+3 silent neurons)", l2)
	}
	// Mask selecting only the output layer's first neuron.
	target := map[int]bool{5: true}
	m := TargetMask(net, target)
	if m.Count() != 1 {
		t.Fatalf("mask count = %d", m.Count())
	}
	if l2 := L2(res, m).Value.Data()[0]; l2 != 1 {
		t.Errorf("masked L2 = %g, want 1", l2)
	}
}

func TestL3TemporalDiversityHinge(t *testing.T) {
	net := smallNet(5)
	// A persistent stimulus produces some toggling; compare against the
	// explicit record-based TD computation.
	stim := tensor.RandBernoulli(rand.New(rand.NewSource(6)), 0.7, 16, 4)
	res := graphRun(net, stim)
	rec := res.ToRecordInto(net, nil)
	tdMin := 6.0
	want := 0.0
	for li := 0; li < 2; li++ {
		td := rec.TemporalDiversity(li)
		for _, v := range td.Data() {
			if v < tdMin {
				want += tdMin - v
			}
		}
	}
	got := L3(res, FullMask(net), tdMin).Value.Data()[0]
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("L3 = %g, want %g (record-based)", got, want)
	}
}

func TestL4SkipsFirstLayerAndPooling(t *testing.T) {
	// A single-layer network has no ℓ ≥ 2 term: L4 must be 0.
	rng := rand.New(rand.NewSource(7))
	one := must(snn.NewNetwork("one", []int{3}, 1.0,
		must(snn.NewLayer("out", must(snn.NewDenseProj(tensor.RandNormal(rng, 0.3, 0.4, 2, 3))), snn.DefaultLIF()))))
	res := graphRun(one, tensor.RandBernoulli(rng, 0.5, 8, 3))
	if l4 := L4(one, res).Value.Data()[0]; l4 != 0 {
		t.Errorf("single-layer L4 = %g, want 0", l4)
	}
}

func TestL4ZeroForUniformContributions(t *testing.T) {
	// Second-layer weights all equal and first layer firing uniformly →
	// contributions are uniform → variance 0.
	l1 := must(snn.NewLayer("h", must(snn.NewDenseProj(tensor.Full(2, 4, 2))), snn.DefaultLIF()))
	l2 := must(snn.NewLayer("out", must(snn.NewDenseProj(tensor.Full(0.5, 2, 4))), snn.DefaultLIF()))
	net := must(snn.NewNetwork("uniform", []int{2}, 1.0, l1, l2))
	stim := tensor.Full(1, 6, 2)
	res := graphRun(net, stim)
	if l4 := L4(net, res).Value.Data()[0]; l4 != 0 {
		t.Errorf("uniform L4 = %g, want 0", l4)
	}
}

func TestL5CountsHiddenTrafficOnly(t *testing.T) {
	net := smallNet(8)
	stim := tensor.RandBernoulli(rand.New(rand.NewSource(9)), 0.8, 12, 4)
	res := graphRun(net, stim)
	rec := res.ToRecordInto(net, nil)
	want := tensor.Sum(rec.Layers[0]) // hidden layer only
	if got := L5(res).Value.Data()[0]; got != want {
		t.Errorf("L5 = %g, want %g", got, want)
	}
}

func TestOutputMismatchPenalty(t *testing.T) {
	net := smallNet(10)
	stim := tensor.RandBernoulli(rand.New(rand.NewSource(11)), 0.6, 10, 4)
	res := graphRun(net, stim)
	ref := res.ToRecordInto(net, nil).Output()
	if m := OutputMismatch(res, ref).Value.Data()[0]; m != 0 {
		t.Errorf("self mismatch = %g, want 0", m)
	}
	// Flip one reference bit: mismatch = 1.
	ref2 := ref.Clone()
	ref2.Data()[0] = 1 - ref2.Data()[0]
	if m := OutputMismatch(res, ref2).Value.Data()[0]; m != 1 {
		t.Errorf("one-bit mismatch = %g, want 1", m)
	}
}

func TestLossGradientsReachInput(t *testing.T) {
	// Every stage-1 loss must propagate a non-trivially zero gradient to
	// the input logits through the full Gumbel-Softmax/STE/SNN pipeline.
	net := smallNet(12)
	rng := rand.New(rand.NewSource(13))
	cfg := TestConfig()
	opt := newChunkOptimizer(net, &cfg, rng, 10)
	res, _, err := opt.forward(0.5)
	if err != nil {
		t.Fatal(err)
	}
	mask := FullMask(net)
	losses := map[string]*ag.Node{
		"L1": L1(res),
		"L2": L2(res, mask),
		"L3": L3(res, mask, 4),
		"L4": L4(net, res),
		"L5": L5(res),
	}
	for name, l := range losses {
		opt.adam.ZeroGrad()
		if l.Value.Data()[0] == 0 {
			continue // nothing to optimize; zero gradient is correct
		}
		ag.Backward(l)
		if tensor.L1Norm(opt.leaf.Grad) == 0 {
			t.Errorf("%s: no gradient reached the input logits", name)
		}
	}
}

func TestFullMaskAndTargetMask(t *testing.T) {
	net := smallNet(14)
	if FullMask(net).Count() != 8 {
		t.Errorf("full mask count = %d, want 8", FullMask(net).Count())
	}
	m := TargetMask(net, map[int]bool{0: true, 4: true, 7: true})
	if m.Count() != 3 {
		t.Errorf("target mask count = %d, want 3", m.Count())
	}
	if m.Masks[0].Data()[0] != 1 || m.Masks[0].Data()[4] != 1 || m.Masks[1].Data()[2] != 1 {
		t.Error("target mask selected wrong neurons")
	}
	if m.Masks[0].Data()[1] != 0 {
		t.Error("unselected neuron present in mask")
	}
}

func TestAlphasInverseMagnitude(t *testing.T) {
	a := alphas([4]float64{10, 0.5, 0, 100})
	if a[0] != 0.1 {
		t.Errorf("alpha[0] = %g, want 0.1", a[0])
	}
	// Magnitudes below 1 clamp to 1 to avoid exploding weights.
	if a[1] != 1 || a[2] != 1 {
		t.Errorf("small-magnitude alphas = %g/%g, want 1/1", a[1], a[2])
	}
	if a[3] != 0.01 {
		t.Errorf("alpha[3] = %g, want 0.01", a[3])
	}
}
