package snn

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	ag "github.com/repro/snntest/internal/autograd"
	"github.com/repro/snntest/internal/tensor"
)

// testNet builds a small 3-layer mixed network (conv → pool → dense) for
// structural tests.
func testNet(seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	in := []int{2, 6, 6}
	conv := must(NewConvProj(tensor.RandNormal(rng, 0, 0.6, 4, 2, 3, 3), in, tensor.ConvSpec{Stride: 1}))
	pool := must(NewPoolProj(conv.OutShape(), 2, PoolWeight))
	dense := must(NewDenseProj(tensor.RandNormal(rng, 0, 0.6, 5, flatLen(pool.OutShape()))))
	lif := DefaultLIF()
	return must(NewNetwork("test", in, 1.0,
		must(NewLayer("conv", conv, lif)),
		must(NewLayer("pool", pool, lif)),
		must(NewLayer("out", dense, lif))))
}

// recurrentNet builds a small recurrent network.
func recurrentNet(seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	w := tensor.RandNormal(rng, 0, 0.5, 8, 6)
	r := tensor.RandNormal(rng, 0, 0.2, 8, 8)
	dense := must(NewDenseProj(tensor.RandNormal(rng, 0, 0.5, 4, 8)))
	lif := DefaultLIF()
	return must(NewNetwork("rec", []int{6}, 1.0,
		must(NewLayer("rec", must(NewRecurrentProj(w, r)), lif)),
		must(NewLayer("out", dense, lif))))
}

func randomStimulus(rng *rand.Rand, n *Network, steps int, p float64) *tensor.Tensor {
	return tensor.RandBernoulli(rng, p, append([]int{steps}, n.InShape...)...)
}

// totalSpikes returns the number of spikes across every layer of rec.
func totalSpikes(rec *Record) float64 {
	s := 0.0
	for _, lt := range rec.Layers {
		s += tensor.Sum(lt)
	}
	return s
}

func TestNetworkCounts(t *testing.T) {
	n := testNet(1)
	// conv: 4×4×4 = 64, pool: 4×2×2 = 16, out: 5 → 85 neurons.
	if got := n.NumNeurons(); got != 85 {
		t.Errorf("NumNeurons = %d, want 85", got)
	}
	// conv params 4·2·3·3 = 72, pool 0, dense 5·16 = 80 → 152.
	if got := n.NumSynapses(); got != 152 {
		t.Errorf("NumSynapses = %d, want 152", got)
	}
	offs := n.LayerOffsets()
	if offs[0] != 0 || offs[1] != 64 || offs[2] != 80 {
		t.Errorf("LayerOffsets = %v", offs)
	}
	if n.InputLen() != 72 || n.OutputLen() != 5 {
		t.Errorf("InputLen/OutputLen = %d/%d", n.InputLen(), n.OutputLen())
	}
}

func TestNetworkShapeMismatchErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if _, err := NewNetwork("bad", []int{3}, 1.0,
		must(NewLayer("d", must(NewDenseProj(tensor.RandNormal(rng, 0, 1, 4, 5))), DefaultLIF()))); err == nil {
		t.Error("expected error for incompatible layers")
	}
}

func TestRunDeterministic(t *testing.T) {
	n := testNet(3)
	in := randomStimulus(rand.New(rand.NewSource(4)), n, 12, 0.3)
	a := n.Run(in)
	b := n.Run(in)
	for li := range a.Layers {
		if !tensor.Equal(a.Layers[li], b.Layers[li], 0) {
			t.Fatalf("layer %d: repeated Run differs", li)
		}
	}
}

func TestRunOutputsAreBinary(t *testing.T) {
	n := testNet(5)
	rec := n.Run(randomStimulus(rand.New(rand.NewSource(6)), n, 10, 0.4))
	for li, lt := range rec.Layers {
		for _, v := range lt.Data() {
			if v != 0 && v != 1 {
				t.Fatalf("layer %d emitted non-binary value %g", li, v)
			}
		}
	}
}

func TestRunStateIsFresh(t *testing.T) {
	// Running a strong stimulus then a zero stimulus must give zero
	// output for the zero stimulus (no state leaks across Run calls).
	n := testNet(7)
	n.Run(randomStimulus(rand.New(rand.NewSource(8)), n, 10, 0.8))
	rec := n.Run(n.ZeroInput(10))
	if totalSpikes(rec) != 0 {
		t.Error("zero stimulus on fresh state must produce no spikes")
	}
}

func TestCheckInputRejectsWrongShape(t *testing.T) {
	n := testNet(9)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for wrong input shape")
		}
	}()
	n.Run(tensor.New(10, 2, 6, 5))
}

func TestCloneIsIndependent(t *testing.T) {
	n := testNet(10)
	in := randomStimulus(rand.New(rand.NewSource(11)), n, 10, 0.4)
	before := n.Run(in)

	c := n.Clone()
	// Mutate the clone: kill a weight and a neuron.
	*c.Layers[0].SynapseWeightAt(0) = 0
	c.Layers[2].SetNeuronMode(0, NeuronDead)

	after := n.Run(in)
	for li := range before.Layers {
		if !tensor.Equal(before.Layers[li], after.Layers[li], 0) {
			t.Fatalf("mutating clone changed original network (layer %d)", li)
		}
	}
	if !c.HasFaultOverrides() || n.HasFaultOverrides() {
		t.Error("fault overrides must live on the clone only")
	}
}

// The central simulator invariant: the differentiable graph path and the
// fast path produce bit-identical spike trains for the same stimulus.
func TestGraphMatchesFastPath(t *testing.T) {
	nets := map[string]*Network{
		"conv-pool-dense": testNet(12),
		"recurrent":       recurrentNet(13),
	}
	for name, n := range nets {
		rng := rand.New(rand.NewSource(14))
		in := randomStimulus(rng, n, 15, 0.35)
		fast := n.Run(in)

		steps := make([]*ag.Node, 15)
		frame := n.InputLen()
		for t2 := 0; t2 < 15; t2++ {
			steps[t2] = ag.Const(tensor.FromSlice(in.Data()[t2*frame:(t2+1)*frame], n.InShape...))
		}
		graph := n.RunGraph(steps).ToRecordInto(n, nil)

		for li := range fast.Layers {
			if !tensor.Equal(fast.Layers[li], graph.Layers[li], 0) {
				t.Fatalf("%s: graph and fast paths diverge at layer %d", name, li)
			}
		}
	}
}

func TestRunGraphRejectsFaultyNetwork(t *testing.T) {
	n := testNet(15)
	n.Layers[0].SetNeuronMode(0, NeuronDead)
	defer func() {
		if recover() == nil {
			t.Error("RunGraph must reject networks with fault overrides")
		}
	}()
	n.RunGraph([]*ag.Node{ag.Const(tensor.New(n.InShape...))})
}

func TestRunGraphGradientReachesInput(t *testing.T) {
	n := testNet(16)
	rng := rand.New(rand.NewSource(17))
	steps := make([]*ag.Node, 8)
	leaves := make([]*ag.Node, 8)
	for t2 := range steps {
		leaf := ag.Leaf(tensor.RandUniform(rng, 0, 1, n.InShape...))
		leaves[t2] = leaf
		steps[t2] = ag.STE(leaf, 0.5)
	}
	res := n.RunGraph(steps)
	loss := ag.Sum(res.LayerCounts(res.OutputLayer()))
	if loss.Value.Data()[0] == 0 {
		t.Skip("stimulus produced no output spikes; gradient necessarily zero")
	}
	ag.Backward(loss)
	total := 0.0
	for _, l := range leaves {
		total += tensor.L1Norm(l.Grad)
	}
	if total == 0 {
		t.Error("no gradient reached the input through the surrogate pipeline")
	}
}

func TestPredictReturnsArgmaxClass(t *testing.T) {
	n := testNet(18)
	in := randomStimulus(rand.New(rand.NewSource(19)), n, 12, 0.5)
	rec := n.Run(in)
	want := tensor.ArgMax(rec.OutputCounts())
	if got := n.Predict(in); got != want {
		t.Errorf("Predict = %d, want %d", got, want)
	}
}

func TestSynapseWeightAtRecurrentIndexing(t *testing.T) {
	n := recurrentNet(20)
	rec := n.Layers[0].Proj.(*RecurrentProj)
	wLen := rec.W.Len()
	// First range addresses W, second addresses R.
	*n.Layers[0].SynapseWeightAt(0) = 42
	*n.Layers[0].SynapseWeightAt(wLen) = 43
	if rec.W.Data()[0] != 42 || rec.R.Data()[0] != 43 {
		t.Error("SynapseWeightAt recurrent indexing is wrong")
	}
}

func TestSynapseWeightAtPanicsForPool(t *testing.T) {
	n := testNet(21)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for pool layer synapse access")
		}
	}()
	n.Layers[1].SynapseWeightAt(0)
}

func TestMaxAbsWeight(t *testing.T) {
	proj := must(NewDenseProj(tensor.FromSlice([]float64{0.5, -2, 1}, 3, 1)))
	l := must(NewLayer("d", proj, DefaultLIF()))
	if got := l.MaxAbsWeight(); got != 2 {
		t.Errorf("MaxAbsWeight = %g, want 2", got)
	}
	pool := must(NewLayer("p", must(NewPoolProj([]int{1, 2, 2}, 2, 1)), DefaultLIF()))
	if pool.MaxAbsWeight() != 0 {
		t.Error("weightless layer MaxAbsWeight should be 0")
	}
}

func TestSaveLoadWeightsRoundTrip(t *testing.T) {
	a := recurrentNet(22)
	b := recurrentNet(99) // same architecture, different weights
	in := randomStimulus(rand.New(rand.NewSource(23)), a, 10, 0.4)

	var buf bytes.Buffer
	if err := a.SaveWeights(&buf); err != nil {
		t.Fatal(err)
	}
	if err := b.LoadWeights(&buf); err != nil {
		t.Fatal(err)
	}
	ra, rb := a.Run(in), b.Run(in)
	for li := range ra.Layers {
		if !tensor.Equal(ra.Layers[li], rb.Layers[li], 0) {
			t.Fatal("loaded network behaves differently from saved one")
		}
	}
}

func TestLoadWeightsRejectsMismatch(t *testing.T) {
	a := recurrentNet(24)
	other := testNet(25)
	var buf bytes.Buffer
	if err := other.SaveWeights(&buf); err != nil {
		t.Fatal(err)
	}
	if err := a.LoadWeights(&buf); err == nil {
		t.Error("loading mismatched weights must fail")
	}
}

// TestLoadWeightsRejectsNonFinite pins the finite-weight precondition of
// the event-driven kernels at the file boundary: a NaN or ±Inf weight in
// any tensor — conv kernel, recurrent W or R — is an error naming the
// tensor and index, and the rejected file leaves the network untouched.
func TestLoadWeightsRejectsNonFinite(t *testing.T) {
	for _, build := range []func(int64) *Network{testNet, recurrentNet} {
		for ti := range build(0).weightTensors() {
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				src := build(26)
				wt := src.weightTensors()[ti]
				wt.data[3] = bad
				var buf bytes.Buffer
				if err := src.SaveWeights(&buf); err != nil {
					t.Fatal(err)
				}
				dst := build(27)
				before := dst.Clone()
				err := dst.LoadWeights(&buf)
				if err == nil {
					t.Fatalf("%s: loading a %v weight must fail", wt.name(), bad)
				}
				if want := wt.name() + "[3]"; !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not name %s", err, want)
				}
				if dst.CheckFiniteWeights() != nil {
					t.Fatalf("%s: rejected file left a non-finite weight behind", wt.name())
				}
				for i, w := range dst.weightTensors() {
					if !tensor.Equal(tensor.FromSlice(w.data, len(w.data)), tensor.FromSlice(before.weightTensors()[i].data, len(w.data)), 0) {
						t.Fatalf("%s: rejected file modified %s", wt.name(), w.name())
					}
				}
			}
		}
	}
}
