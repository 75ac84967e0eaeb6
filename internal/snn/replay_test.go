package snn

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/repro/snntest/internal/tensor"
)

// fixtureNets builds one tiny network per builder plus variants that
// exercise the state machinery: a recurrent net with dead/saturated
// neuron overrides.
func fixtureNets(t *testing.T) map[string]*Network {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	nets := map[string]*Network{
		"nmnist":      must(BuildNMNIST(rng, ScaleTiny)),
		"ibm-gesture": must(BuildIBMGesture(rng, ScaleTiny)),
		"shd":         must(BuildSHD(rng, ScaleTiny)),
	}
	faulty := must(BuildSHD(rng, ScaleTiny))
	faulty.Layers[0].SetNeuronMode(0, NeuronDead)
	faulty.Layers[0].SetNeuronMode(1, NeuronSaturated)
	faulty.Layers[1].SetNeuronMode(2, NeuronSaturated)
	nets["shd-faulty"] = faulty
	return nets
}

func fixtureStim(net *Network, steps int, seed int64) *tensor.Tensor {
	return tensor.RandBernoulli(rand.New(rand.NewSource(seed)), 0.4,
		append([]int{steps}, net.InShape...)...)
}

func recordsEqual(a, b *Record) bool {
	if a.Steps != b.Steps || len(a.Layers) != len(b.Layers) {
		return false
	}
	for i := range a.Layers {
		if !tensor.Equal(a.Layers[i], b.Layers[i], 0) {
			return false
		}
	}
	return true
}

// TestEquivRunDeterminism pins that repeated Run calls — including on
// recurrent networks and networks with dead/saturated neuron overrides —
// produce bit-identical records. verify.sh re-runs the Equiv tests with
// -count=2, so cross-process determinism is covered too.
func TestEquivRunDeterminism(t *testing.T) {
	for name, net := range fixtureNets(t) {
		stim := fixtureStim(net, 12, 51)
		first := net.Run(stim)
		for rep := 0; rep < 3; rep++ {
			if !recordsEqual(first, net.Run(stim)) {
				t.Errorf("%s: repeated Run produced a different record (rep %d)", name, rep)
			}
		}
	}
}

// TestEquivRunFromZeroMatchesRun pins RunFrom(0, …) to Run on every
// builder fixture: with no replay the incremental entry point must be the
// plain simulator.
func TestEquivRunFromZeroMatchesRun(t *testing.T) {
	for name, net := range fixtureNets(t) {
		stim := fixtureStim(net, 10, 52)
		golden := net.Run(stim)
		// Repeated on one scratch to catch stale state.
		sc := net.NewScratch()
		for rep := 0; rep < 2; rep++ {
			rec, steps := sc.RunFrom(0, golden, stim)
			if !recordsEqual(golden, rec) {
				t.Errorf("%s: RunFrom(0) differs from Run (rep %d)", name, rep)
			}
			if want := len(net.Layers) * golden.Steps; steps != want {
				t.Errorf("%s: layer-steps = %d, want %d", name, steps, want)
			}
		}
	}
}

// TestEquivRunFromReplayMatchesFullRun is the core replay-correctness
// property: perturb one weight (or neuron) at layer s, then the faulty
// network's RunFrom(s, golden, stim) must match its full Run exactly on
// every layer ≥ s, for every start layer of every fixture.
func TestEquivRunFromReplayMatchesFullRun(t *testing.T) {
	for name, net := range fixtureNets(t) {
		stim := fixtureStim(net, 10, 53)
		golden := net.Run(stim)
		for s := 0; s < len(net.Layers); s++ {
			faulty := net.Clone()
			// Perturb layer s so downstream activity actually changes:
			// saturate a neuron (works for weightless pool layers too).
			faulty.Layers[s].SetNeuronMode(0, NeuronSaturated)
			full := faulty.Run(stim)
			inc, _ := faulty.NewScratch().RunFrom(s, golden, stim)
			for li := s; li < len(net.Layers); li++ {
				if !tensor.Equal(full.Layers[li], inc.Layers[li], 0) {
					t.Errorf("%s: start %d: layer %d differs between full Run and RunFrom", name, s, li)
				}
			}
			for li := 0; li < s; li++ {
				if inc.Layers[li] != golden.Layers[li] {
					t.Errorf("%s: start %d: layer %d must alias the golden record", name, s, li)
				}
			}
		}
	}
}

// TestEquivDivergesFromMatchesL1 pins the early-exit detector to the
// full-record L1 criterion on perturbed and unperturbed networks.
func TestEquivDivergesFromMatchesL1(t *testing.T) {
	for name, net := range fixtureNets(t) {
		stim := fixtureStim(net, 10, 54)
		golden := net.Run(stim)
		sc := net.NewScratch()

		// Unperturbed network: must never diverge from its own golden run.
		if div, _ := sc.DivergesFrom(0, golden, stim); div {
			t.Errorf("%s: healthy network diverged from its own golden record", name)
		}
		for s := 0; s < len(net.Layers); s++ {
			faulty := net.Clone()
			faulty.Layers[s].SetNeuronMode(0, NeuronDead)
			want := tensor.L1Diff(faulty.Run(stim).Output(), golden.Output()) > 0
			fsc := faulty.NewScratch()
			div, steps := fsc.DivergesFrom(s, golden, stim)
			if div != want {
				t.Errorf("%s: start %d: DivergesFrom = %v, L1 criterion = %v", name, s, div, want)
			}
			if maxSteps := (len(net.Layers) - s) * golden.Steps; steps > maxSteps {
				t.Errorf("%s: start %d: simulated %d layer-steps, cap %d", name, s, steps, maxSteps)
			}
		}
	}
}

// TestScratchReuseAcrossStimuli catches stale-state bugs: one scratch
// driven with different stimuli, step counts and start layers must always
// match a fresh full run.
func TestScratchReuseAcrossStimuli(t *testing.T) {
	net := must(BuildSHD(rand.New(rand.NewSource(42)), ScaleTiny))
	sc := net.NewScratch()
	for i, steps := range []int{8, 14, 8, 5} {
		stim := fixtureStim(net, steps, int64(60+i))
		golden := net.Run(stim)
		rec, _ := sc.RunFrom(0, nil, stim)
		if !recordsEqual(golden, rec) {
			t.Errorf("run %d (steps %d): scratch run differs from fresh run", i, steps)
		}
		rec, _ = sc.RunFrom(1, golden, stim)
		if !tensor.Equal(golden.Output(), rec.Output(), 0) {
			t.Errorf("run %d: unperturbed replay from layer 1 differs from golden", i)
		}
	}
}

func TestRecordReplayHelpers(t *testing.T) {
	net := must(BuildSHD(rand.New(rand.NewSource(44)), ScaleTiny))
	stim := fixtureStim(net, 6, 72)
	rec := net.Run(stim)
	if !rec.Matches(net, 6) {
		t.Error("record must match the network it was recorded from")
	}
	if rec.Matches(net, 7) {
		t.Error("record must not match a different step count")
	}
	other := must(BuildNMNIST(rand.New(rand.NewSource(45)), ScaleTiny))
	if rec.Matches(other, 6) {
		t.Error("record must not match a different architecture")
	}
	// ReplayInput(ℓ, t) is layer ℓ−1's output row at step t, by view.
	in := rec.ReplayInput(1, 3)
	if in.Len() != net.Layers[0].NumNeurons() {
		t.Errorf("replay input length = %d, want %d", in.Len(), net.Layers[0].NumNeurons())
	}
	for i := 0; i < in.Len(); i++ {
		if in.Data()[i] != rec.Layers[0].At(3, i) {
			t.Fatalf("replay input element %d differs from recorded spike", i)
		}
	}
}

func TestRunFromValidation(t *testing.T) {
	net := must(BuildSHD(rand.New(rand.NewSource(43)), ScaleTiny))
	stim := fixtureStim(net, 6, 70)
	golden := net.Run(stim)
	sc := net.NewScratch()
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"start out of range", func() { sc.RunFrom(len(net.Layers), golden, stim) }},
		{"negative start", func() { sc.RunFrom(-1, golden, stim) }},
		{"nil golden", func() { sc.RunFrom(1, nil, stim) }},
		{"step mismatch", func() { sc.RunFrom(1, golden, fixtureStim(net, 7, 71)) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			tc.call()
		}()
	}
}

// TestGoldenActiveLists pins the lists a Network.Run record carries:
// every layer's and the stimulus's list equals tensor.NonZeroIndices of
// the row it indexes, and a record lends its stimulus list only to the
// very tensor it was run on. A golden record made from a different
// stimulus tensor — other content, or equal content in another tensor —
// must leave a replay from layer 0 to scan its own stimulus.
func TestGoldenActiveLists(t *testing.T) {
	net := must(BuildIBMGesture(rand.New(rand.NewSource(46)), ScaleTiny))
	stimA := fixtureStim(net, 9, 73)
	stimB := fixtureStim(net, 9, 74)
	golden := net.Run(stimA)

	buf := make([]int32, max(net.InputLen(), net.NumNeurons()))
	for step := 0; step < golden.Steps; step++ {
		for li := range net.Layers {
			got := golden.lists[li].row(step)
			want := tensor.NonZeroIndices(buf, golden.Layers[li].Step(step).Data())
			if !slices.Equal(got, want) {
				t.Fatalf("layer %d step %d: list %v, want %v", li, step, got, want)
			}
			if li > 0 {
				if replay, ok := golden.replayList(li, step, nil); !ok || !slices.Equal(replay, golden.lists[li-1].row(step)) {
					t.Fatalf("layer %d step %d: replay list is not layer %d's list", li, step, li-1)
				}
			}
		}
		got, ok := golden.replayList(0, step, stimA)
		want := tensor.NonZeroIndices(buf, stimA.Step(step).Data())
		if !ok || !slices.Equal(got, want) {
			t.Fatalf("stimulus step %d: list %v, want %v", step, got, want)
		}
		for _, other := range []*tensor.Tensor{stimB, stimA.Clone()} {
			if _, ok := golden.replayList(0, step, other); ok {
				t.Fatalf("step %d: golden record lent its stimulus list to another tensor", step)
			}
		}
	}

	// Replay from layer 0 on stimB over stimA's golden record: the result
	// must be stimB's own run, on both engines.
	want := net.Run(stimB)
	for _, reference := range []bool{false, true} {
		sc := net.NewScratch()
		sc.SetReference(reference)
		got, _ := sc.RunFrom(0, golden, stimB)
		if !recordsEqual(want, got) {
			t.Fatalf("reference=%v: replay on another stimulus used the golden stimulus list", reference)
		}
	}
	// Records without lists fall back to scanning.
	plain, _ := net.NewScratch().RunFrom(0, nil, stimA)
	if _, ok := plain.replayList(1, 0, stimA); ok {
		t.Fatal("a scratch's own record must not carry golden lists")
	}
	if _, ok := NewRecord(net, 9).replayList(1, 0, stimA); ok {
		t.Fatal("NewRecord must not carry golden lists")
	}
}

// FuzzReplayActiveLists differentiates golden-list replay against the
// reference path: a random fixture, a replay start layer, a fault at
// that layer (neuron mode, threshold, leak, refractory or synapse) and a
// non-binary stimulus, replayed over a Network.Run golden record whose
// stimulus and layer lists the fused path reads and the reference path
// ignores. RunFrom must be bit-identical, and DivergesFrom must report
// the same flag after the same layer-steps.
func FuzzReplayActiveLists(f *testing.F) {
	f.Add(int64(1), byte(0), byte(0), byte(1), byte(3), byte(9), byte(40), byte(0))
	f.Add(int64(2), byte(1), byte(2), byte(5), byte(17), byte(12), byte(30), byte(3))
	f.Add(int64(3), byte(2), byte(1), byte(4), byte(5), byte(15), byte(60), byte(1))
	f.Fuzz(func(t *testing.T, seed int64, fixture, startB, faultKind, faultPos, stepsB, density, valueB byte) {
		rng := rand.New(rand.NewSource(seed))
		base := must(Build([]string{"nmnist", "ibm-gesture", "shd"}[int(fixture)%3], rng, ScaleTiny))
		start := int(startB) % len(base.Layers)

		steps := int(stepsB)%16 + 1
		stim := tensor.New(append([]int{steps}, base.InShape...)...)
		p := float64(density%101) / 100
		mixed := []float64{1, 0.5, 2, -1, 0.1, -0.7}
		for i, d := 0, stim.Data(); i < len(d); i++ {
			switch {
			case rng.Float64() < p:
				d[i] = mixed[(int(valueB)+rng.Intn(2))%len(mixed)]
			case valueB%2 == 1 && rng.Intn(4) == 0:
				d[i] = math.Copysign(0, -1)
			}
		}
		golden := base.Run(stim)

		net := base.Clone()
		l := net.Layers[start]
		ni := int(faultPos) % l.NumNeurons()
		switch faultKind % 6 {
		case 0:
			l.SetNeuronMode(ni, NeuronDead)
		case 1:
			l.SetNeuronMode(ni, NeuronSaturated)
		case 2:
			l.SetNeuronThreshold(ni, float64(faultPos%40+1)/20)
		case 3:
			l.SetNeuronLeak(ni, float64(faultPos%10+1)/10)
		case 4:
			l.SetNeuronRefractory(ni, int(faultPos)%4)
		case 5:
			if l.NumSynapses() == 0 {
				l.SetNeuronMode(ni, NeuronSaturated)
			} else {
				*l.SynapseWeightAt(int(faultPos) % l.NumSynapses()) = float64(faultPos)/32 - 4
			}
		}

		fused, ref, frec, rrec := runBoth(start, golden, net, stim)
		requireBitIdentical(t, net, fused, ref, frec, rrec, "replay")
		fd, fsteps := fused.DivergesFrom(start, golden, stim)
		rd, rsteps := ref.DivergesFrom(start, golden, stim)
		if fd != rd || fsteps != rsteps {
			t.Fatalf("start %d: DivergesFrom fused (%v, %d) vs reference (%v, %d)", start, fd, fsteps, rd, rsteps)
		}
	})
}

// TestOutputArgMax pins the allocation-free readout to
// tensor.ArgMax(OutputCounts()), ties to the lowest index included, on
// fixture runs and on hand-built count ties.
func TestOutputArgMax(t *testing.T) {
	for name, net := range fixtureNets(t) {
		rec := net.Run(fixtureStim(net, 12, 55))
		if got, want := rec.OutputArgMax(), tensor.ArgMax(rec.OutputCounts()); got != want {
			t.Errorf("%s: OutputArgMax %d, ArgMax of counts %d", name, got, want)
		}
		if allocs := testing.AllocsPerRun(10, func() { rec.OutputArgMax() }); allocs != 0 {
			t.Errorf("%s: OutputArgMax allocated %v times; want 0", name, allocs)
		}
	}
	net := must(BuildSHD(rand.New(rand.NewSource(47)), ScaleTiny))
	rec := NewRecord(net, 3)
	out := rec.Output()
	if got := rec.OutputArgMax(); got != 0 {
		t.Errorf("silent output: OutputArgMax %d, want 0", got)
	}
	out.Set(1, 0, 4)
	out.Set(1, 2, 4)
	out.Set(1, 1, 2)
	out.Set(1, 2, 2)
	if got, want := rec.OutputArgMax(), tensor.ArgMax(rec.OutputCounts()); got != 2 || want != 2 {
		t.Errorf("tie 4 vs 2: OutputArgMax %d, ArgMax %d, want 2", got, want)
	}
}
