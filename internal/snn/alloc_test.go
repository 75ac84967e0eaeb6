package snn

import (
	"math/rand"
	"runtime"
	"testing"

	ag "github.com/repro/snntest/internal/autograd"
	"github.com/repro/snntest/internal/tensor"
)

// Zero-allocation gates for the fused simulation path, pinned with the
// runtime's own accounting. The static side of the same contract is
// enforced by snnlint's hotpathalloc analyzer; these tests catch what
// escape analysis decides at compile time, which no AST walk can. The
// gate covers the full forward pass — not just the LIF step kernel —
// for every fixture architecture, so a regression in any fused kernel
// (dense, conv, pool, recurrent) trips it.

// TestStepLayerZeroAlloc pins the reference LIF step kernel in isolation:
// one layer step on prebuilt Scratch state must not allocate.
func TestStepLayerZeroAlloc(t *testing.T) {
	net := must(BuildNMNIST(rand.New(rand.NewSource(7)), ScaleTiny))
	sc := net.NewScratch()
	l := net.Layers[0]
	nn := l.NumNeurons()
	st := sc.states[0]
	cd := make([]float64, nn)
	out := make([]float64, nn)
	for i := range cd {
		cd[i] = float64(i%3) * 0.4
	}

	allocs := testing.AllocsPerRun(100, func() {
		stepLayer(l, st, cd, out)
	})
	if allocs != 0 {
		t.Errorf("stepLayer allocated %v times per step; the //snn:hotpath contract requires 0", allocs)
	}
}

// TestRunFromZeroAlloc asserts a full fused RunFrom pass over a prewarmed
// Scratch allocates nothing, for every fixture architecture.
func TestRunFromZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, b := range []string{"nmnist", "ibm-gesture", "shd"} {
		net := must(Build(b, rng, ScaleTiny))
		sc := net.NewScratch()
		stim := benchStimulus(net, 10)
		sc.RunFrom(0, nil, stim) // prewarm: size the record buffers

		allocs := testing.AllocsPerRun(10, func() {
			sc.RunFrom(0, nil, stim)
		})
		if allocs != 0 {
			t.Errorf("%s: full fused RunFrom pass allocated %v times per run; want 0", b, allocs)
		}
	}
}

// TestReplayAndDivergenceZeroAlloc asserts the campaign hot paths —
// golden-replay RunFrom from a mid-network start layer and the
// early-exit DivergesFrom detector — are also allocation-free on a faulty
// clone's own scratch, including the first pass after a further fault is
// applied to that clone.
func TestReplayAndDivergenceZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, b := range []string{"nmnist", "ibm-gesture", "shd"} {
		net := must(Build(b, rng, ScaleTiny))
		stim := benchStimulus(net, 10)
		golden := net.Run(stim)

		faulty := net.Clone()
		start := len(net.Layers) / 2
		faulty.Layers[start].SetNeuronMode(0, NeuronSaturated)
		sc := faulty.NewScratch()
		sc.RunFrom(start, golden, stim) // prewarm

		if allocs := testing.AllocsPerRun(10, func() {
			sc.RunFrom(start, golden, stim)
		}); allocs != 0 {
			t.Errorf("%s: golden-replay RunFrom allocated %v times per run; want 0", b, allocs)
		}
		if allocs := testing.AllocsPerRun(10, func() {
			sc.DivergesFrom(start, golden, stim)
		}); allocs != 0 {
			t.Errorf("%s: DivergesFrom allocated %v times per run; want 0", b, allocs)
		}

		// A further neuron fault applied to the scratch's network grows the
		// pass's list of overridden neurons; the very first pass over it
		// must not allocate (AllocsPerRun would hide it behind its warm-up
		// call).
		last := faulty.Layers[len(faulty.Layers)-1]
		last.SetNeuronThreshold(last.NumNeurons()-1, 0.5)
		if allocs := allocsOnce(func() { sc.DivergesFrom(start, golden, stim) }); allocs != 0 {
			t.Errorf("%s: first DivergesFrom after a new fault allocated %d times; want 0", b, allocs)
		}
	}
}

// TestRunGraphFusedZeroAlloc pins the BPTT kernel's zero-allocation
// contract on every fixture: once a network has run RunGraphFused at a
// step count, a forward pass over arena-adopted leaves plus a Backward
// through it allocates nothing. The root is an allocation-free MultiOp
// that adds 1 to every spike's cotangent, so the count is the kernel's
// alone; the test also checks that the backward reached the inputs.
// Under the race detector sync.Pool drops items at random, so Backward's
// pooled traversal buffers reallocate and only the gradient check runs.
func TestRunGraphFusedZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, b := range []string{"nmnist", "ibm-gesture", "shd"} {
		net := must(Build(b, rng, ScaleTiny))
		stim := benchStimulus(net, 12)
		arena := tensor.NewArena()
		in := make([]*ag.Node, stim.Dim(0))
		for s := range in {
			x := tensor.New(net.InShape...)
			copy(x.Data(), stim.RawRange(s*net.InputLen(), net.InputLen()))
			arena.Adopt(x)
			in[s] = ag.Leaf(x)
		}
		var spikes []*ag.Node
		var seed *ag.MultiOp
		seed = ag.NewMultiOp(func() {
			for _, s := range spikes {
				g := s.Grad.Data()
				for i := range g {
					g[i]++
				}
			}
		})
		val, grad := tensor.Scalar(0), tensor.Scalar(0)
		pass := func() {
			arena.Reset()
			res := net.RunGraphFused(in)
			spikes = spikes[:0]
			for _, layer := range res.Spikes {
				spikes = append(spikes, layer...)
			}
			seed.Bind(spikes, 1)
			if err := ag.Backward(seed.Output(0, val, grad)); err != nil {
				t.Fatal(err)
			}
		}
		pass()
		nonZero := 0
		for _, x := range in {
			for _, g := range x.Grad.Data() {
				if g != 0 {
					nonZero++
				}
			}
		}
		if nonZero == 0 {
			t.Fatalf("%s: no input gradient reached the leaves", b)
		}
		if raceEnabled {
			continue
		}
		if allocs := testing.AllocsPerRun(10, pass); allocs != 0 {
			t.Errorf("%s: RunGraphFused forward + backward allocated %v times per pass; want 0", b, allocs)
		}
	}
}

// allocsOnce counts the heap allocations of a single call of f, with no
// warm-up call first.
func allocsOnce(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
