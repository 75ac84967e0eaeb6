package snn

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/repro/snntest/internal/tensor"
)

// Differential equivalence suite for the fused LIF kernels: every fixture
// (conv, pool, dense, recurrent), every fault mode, every replay start and
// 1..N step counts must produce bit-identical spike records and membrane
// traces on the fused and reference paths. Run under -race in CI, these
// tests are the contract that lets the fused path be the default.

// equivFixtures builds one tiny network per benchmark architecture, which
// together cover all four projection kernels.
func equivFixtures(t *testing.T, seed int64) map[string]*Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nets := make(map[string]*Network)
	for _, b := range []string{"nmnist", "ibm-gesture", "shd"} {
		net, err := Build(b, rng, ScaleTiny)
		if err != nil {
			t.Fatalf("build %s: %v", b, err)
		}
		nets[b] = net
	}
	return nets
}

// runBoth simulates the network on both paths with independent scratches
// and returns them for record/state comparison.
func runBoth(start int, golden *Record, net *Network, stim *tensor.Tensor) (fused, ref *Scratch, frec, rrec *Record) {
	fused, ref = net.NewScratch(), net.NewScratch()
	ref.SetReference(true)
	frec, _ = fused.RunFrom(start, golden, stim)
	rrec, _ = ref.RunFrom(start, golden, stim)
	return fused, ref, frec, rrec
}

// requireBitIdentical asserts spike records and membrane traces agree
// bit for bit — +0.0 and -0.0 included, since the event-driven kernels
// add exactly the reference path's non-zero terms in its order.
func requireBitIdentical(t *testing.T, net *Network, fused, ref *Scratch, frec, rrec *Record, ctx string) {
	t.Helper()
	for li := range net.Layers {
		fd, rd := frec.Layers[li].Data(), rrec.Layers[li].Data()
		for i := range rd {
			if math.Float64bits(fd[i]) != math.Float64bits(rd[i]) {
				t.Fatalf("%s: layer %d spike[%d]: fused %g, reference %g", ctx, li, i, fd[i], rd[i])
			}
		}
		for i := range ref.states[li].u {
			if math.Float64bits(fused.states[li].u[i]) != math.Float64bits(ref.states[li].u[i]) {
				t.Fatalf("%s: layer %d membrane[%d]: fused %g, reference %g",
					ctx, li, i, fused.states[li].u[i], ref.states[li].u[i])
			}
			if fused.states[li].refrac[i] != ref.states[li].refrac[i] {
				t.Fatalf("%s: layer %d refrac[%d]: fused %d, reference %d",
					ctx, li, i, fused.states[li].refrac[i], ref.states[li].refrac[i])
			}
		}
	}
}

func stimFor(net *Network, seed int64, steps int, density float64) *tensor.Tensor {
	return tensor.RandBernoulli(rand.New(rand.NewSource(seed)), density,
		append([]int{steps}, net.InShape...)...)
}

// TestEquivFusedMatchesReference pins the tentpole contract on every
// fixture over a range of step counts and stimulus densities.
func TestEquivFusedMatchesReference(t *testing.T) {
	for name, net := range equivFixtures(t, 21) {
		for _, steps := range []int{1, 2, 7, 30} {
			for _, density := range []float64{0, 0.2, 0.8} {
				stim := stimFor(net, 100+int64(steps), steps, density)
				fused, ref, frec, rrec := runBoth(0, nil, net, stim)
				ctx := name
				requireBitIdentical(t, net, fused, ref, frec, rrec, ctx)
			}
		}
	}
}

// TestEquivFusedFaultModes drives every fault override through both
// paths: dead and saturated modes, threshold/leak/refractory parameter
// faults, and a stuck-at-zero synapse.
func TestEquivFusedFaultModes(t *testing.T) {
	for name, base := range equivFixtures(t, 22) {
		stim := stimFor(base, 31, 12, 0.4)
		for li := range base.Layers {
			nn := base.Layers[li].NumNeurons()
			mut := []struct {
				tag   string
				apply func(l *Layer)
			}{
				{"dead", func(l *Layer) { l.SetNeuronMode(nn/2, NeuronDead) }},
				{"saturated", func(l *Layer) { l.SetNeuronMode(0, NeuronSaturated) }},
				{"threshold", func(l *Layer) { l.SetNeuronThreshold(nn-1, 0.01) }},
				{"leak", func(l *Layer) { l.SetNeuronLeak(nn/3, 0.2) }},
				{"refractory", func(l *Layer) { l.SetNeuronRefractory(0, 5) }},
			}
			if base.Layers[li].NumSynapses() > 0 {
				mut = append(mut, struct {
					tag   string
					apply func(l *Layer)
				}{"synapse-stuck", func(l *Layer) { *l.SynapseWeightAt(0) = 0 }})
			}
			for _, m := range mut {
				net := base.Clone()
				m.apply(net.Layers[li])
				fused, ref, frec, rrec := runBoth(0, nil, net, stim)
				requireBitIdentical(t, net, fused, ref, frec, rrec, name+"/"+m.tag)
			}
		}
	}
}

// TestEquivFusedGoldenReplay pins the RunFrom fast path: for every replay
// start layer, the fused and reference paths agree given the same golden
// record, and both agree with a from-scratch run of the faulty network.
func TestEquivFusedGoldenReplay(t *testing.T) {
	for name, base := range equivFixtures(t, 23) {
		stim := stimFor(base, 41, 15, 0.3)
		golden := base.Run(stim)
		for start := range base.Layers {
			net := base.Clone()
			net.Layers[start].SetNeuronMode(0, NeuronSaturated)
			fused, ref, frec, rrec := runBoth(start, golden, net, stim)
			requireBitIdentical(t, net, fused, ref, frec, rrec, name)
			full := net.Run(stim)
			for li := range net.Layers {
				if !tensor.Equal(frec.Layers[li], full.Layers[li], 0) {
					t.Fatalf("%s: fused RunFrom(%d) diverges from full run at layer %d", name, start, li)
				}
			}
		}
	}
}

// TestEquivFusedDivergesFrom pins the early-exit detector: both paths
// must report the same divergence flag and simulate the same number of
// layer-steps before exiting.
func TestEquivFusedDivergesFrom(t *testing.T) {
	for name, base := range equivFixtures(t, 24) {
		stim := stimFor(base, 51, 15, 0.3)
		golden := base.Run(stim)
		for _, mode := range []NeuronMode{NeuronSaturated, NeuronDead} {
			for start := range base.Layers {
				net := base.Clone()
				net.Layers[start].SetNeuronMode(0, mode)
				fused, ref := net.NewScratch(), net.NewScratch()
				ref.SetReference(true)
				fd, fsteps := fused.DivergesFrom(start, golden, stim)
				rd, rsteps := ref.DivergesFrom(start, golden, stim)
				if fd != rd || fsteps != rsteps {
					t.Fatalf("%s start %d mode %v: fused (%v, %d) vs reference (%v, %d)",
						name, start, mode, fd, fsteps, rd, rsteps)
				}
			}
		}
	}
}

// TestScratchSeesFaultAppliedAfterCreation pins that a scratch caches
// nothing weight- or fault-shaped across passes: a fault applied to the
// scratch's own network after a healthy pass takes effect on the next
// pass, which must match a fresh run of the faulty network.
func TestScratchSeesFaultAppliedAfterCreation(t *testing.T) {
	net := must(BuildNMNIST(rand.New(rand.NewSource(25)), ScaleTiny))
	stim := stimFor(net, 61, 10, 0.3)

	sc := net.NewScratch()
	healthy, _ := sc.RunFrom(0, nil, stim)
	healthyL0 := healthy.Layers[0].Clone() // the next pass overwrites the scratch's record
	net.Layers[0].SetNeuronMode(1, NeuronSaturated)
	got, _ := sc.RunFrom(0, nil, stim)
	want := net.Run(stim)
	for li := range net.Layers {
		if !tensor.Equal(got.Layers[li], want.Layers[li], 0) {
			t.Fatalf("scratch must simulate the fault applied after its creation (layer %d differs)", li)
		}
	}
	if tensor.Equal(got.Layers[0], healthyL0, 0) {
		t.Fatal("the saturated neuron left layer 0 unchanged; the fixture no longer exercises the fault")
	}
}

// TestScratchRejectsAliasedGolden pins the self-aliasing guard: feeding a
// scratch its own previous record as the golden baseline would silently
// compare buffers against themselves, so it must panic instead.
func TestScratchRejectsAliasedGolden(t *testing.T) {
	net := quickNet(27)
	stim := stimFor(net, 71, 8, 0.4)
	sc := net.NewScratch()
	g, _ := sc.RunFrom(0, nil, stim)
	defer func() {
		r := recover()
		s, ok := r.(string)
		if !ok || !strings.Contains(s, "aliases") {
			t.Fatalf("expected aliasing panic, got %v", r)
		}
	}()
	sc.DivergesFrom(0, g, stim)
}

// FuzzFusedLIF differentiates the fused kernels against the reference
// path over arbitrary seeds, densities, step counts and fault injections
// on a dense+recurrent network (the two kernels with cross-neuron state
// coupling, where an ordering bug would surface).
func FuzzFusedLIF(f *testing.F) {
	f.Add(int64(1), byte(40), byte(9), byte(0), byte(0))
	f.Add(int64(2), byte(10), byte(1), byte(1), byte(3))
	f.Add(int64(3), byte(75), byte(30), byte(2), byte(7))
	f.Add(int64(4), byte(0), byte(16), byte(3), byte(11))
	f.Fuzz(func(t *testing.T, seed int64, density, stepsB, faultKind, faultPos byte) {
		rng := rand.New(rand.NewSource(seed))
		hidden, classes := 7, 4
		w := tensor.RandNormal(rng, 0.2, 0.5, hidden, 5)
		r := tensor.RandNormal(rng, 0, 0.4, hidden, hidden)
		l1 := must(NewLayer("rec", must(NewRecurrentProj(w, r)), DefaultLIF()))
		l2 := must(NewLayer("out", must(NewDenseProj(tensor.RandNormal(rng, 0.2, 0.5, classes, hidden))), DefaultLIF()))
		net := must(NewNetwork("fuzz", []int{5}, 1.0, l1, l2))

		li := int(faultPos) % 2
		ni := int(faultPos) % net.Layers[li].NumNeurons()
		switch faultKind % 5 {
		case 1:
			net.Layers[li].SetNeuronMode(ni, NeuronDead)
		case 2:
			net.Layers[li].SetNeuronMode(ni, NeuronSaturated)
		case 3:
			net.Layers[li].SetNeuronThreshold(ni, float64(faultPos)/20)
		case 4:
			net.Layers[li].SetNeuronLeak(ni, float64(faultPos%10)/10)
		}

		steps := int(stepsB)%31 + 1
		stim := stimFor(net, seed+9, steps, float64(density%101)/100)
		fused, ref, frec, rrec := runBoth(0, nil, net, stim)
		requireBitIdentical(t, net, fused, ref, frec, rrec, "fuzz")
	})
}

// TestStepLayerHealthyMatchesOverrides pins the healthy sweep against
// lifUpdate. A healthy layer (no override slices, hoisted sweep) must
// produce bit-identical spike trains to the same layer carrying
// explicitly-allocated override slices whose every entry is the
// documented "unset" sentinel (all-normal modes, zero thresholds/leaks,
// -1 refracs): the reference engine runs lifUpdate on every neuron of
// such a layer, while the fused engine lists no overridden neuron and
// sweeps them all. Both engines run both variants. A second variant adds
// one real override per layer, which the fused engine confines to
// lifUpdate between two swept gaps; it must match the reference engine's
// all-neuron lifUpdate loop bit for bit.
func TestStepLayerHealthyMatchesOverrides(t *testing.T) {
	sentinels := func(net *Network) *Network {
		c := net.Clone()
		for _, l := range c.Layers {
			nn := l.NumNeurons()
			l.Modes = make([]NeuronMode, nn)
			l.Thresholds = make([]float64, nn)
			l.Leaks = make([]float64, nn)
			l.Refracs = make([]int, nn)
			for i := range l.Refracs {
				l.Refracs[i] = -1
			}
			if !l.HasFaultOverrides() {
				t.Fatalf("%s: override slices not detected", l.Name)
			}
		}
		return c
	}
	for name, net := range equivFixtures(t, 41) {
		overridden := sentinels(net)
		stim := stimFor(net, 43, 20, 0.4)
		for _, reference := range []bool{false, true} {
			healthy, forced := net.NewScratch(), overridden.NewScratch()
			healthy.SetReference(reference)
			forced.SetReference(reference)
			hrec, _ := healthy.RunFrom(0, nil, stim)
			frec, _ := forced.RunFrom(0, nil, stim)
			for li := range net.Layers {
				hd, fd := hrec.Layers[li].Data(), frec.Layers[li].Data()
				for i := range hd {
					if hd[i] != fd[i] {
						t.Fatalf("%s layer %d reference=%v: healthy fast loop diverges from lifUpdate loop at %d: %v vs %v",
							name, li, reference, i, hd[i], fd[i])
					}
				}
			}
		}

		one := sentinels(net)
		for _, l := range one.Layers {
			l.Thresholds[l.NumNeurons()/2] = 0.3
		}
		fused, ref, frec, rrec := runBoth(0, nil, one, stim)
		if n := len(fused.kernels[0].special); n != 1 {
			t.Fatalf("%s: fused engine lists %d overridden neurons, want 1", name, n)
		}
		requireBitIdentical(t, one, fused, ref, frec, rrec, name+"/one-override")
	}
}

// FuzzFusedConvPool differentiates the event-driven conv and pool
// kernels against the reference Conv2D/SumPool2D path over arbitrary
// geometry — 1–3 input and output channels, 1–9 rows and columns,
// kernels 1–4, stride 1–3, padding 0–2 — with a pool layer on the conv
// output, or (poolFirst) on the stimulus so that its sums see
// non-binary values too, plus fault injections on either layer and
// stimuli from silent to saturated. Stimuli need not be binary: active
// entries may be 0.5, 2 or a mix of signed, inexact and large values,
// and silent entries may be -0.0.
func FuzzFusedConvPool(f *testing.F) {
	f.Add(int64(1), false, byte(1), byte(5), byte(6), byte(2), byte(0), byte(0), byte(0), byte(30), byte(0), byte(6), byte(0), byte(0))
	f.Add(int64(2), true, byte(4), byte(8), byte(7), byte(2), byte(2), byte(2), byte(1), byte(50), byte(3), byte(9), byte(1), byte(4))
	f.Fuzz(func(t *testing.T, seed int64, poolFirst bool, chans, hB, wB, kB, strideB, padB, poolB, density, valueB, stepsB, faultKind, faultPos byte) {
		rng := rand.New(rand.NewSource(seed))
		inC, outC := 1+int(chans)%3, 1+int(chans/3)%3
		k, stride, pad := 1+int(kB)%4, 1+int(strideB)%3, int(padB)%3
		// Keep the padded conv input at least one kernel wide.
		h := max(1+int(hB)%9, k-2*pad)
		w := max(1+int(wB)%9, k-2*pad)
		kernel := tensor.RandNormal(rng, 0.1, 0.8, outC, inC, k, k)
		spec := tensor.ConvSpec{Stride: stride, Pad: pad}
		poolWeight := 0.2 + rng.Float64()
		var conv *ConvProj
		var layers []*Layer
		inShape := []int{inC, h, w}
		if poolFirst {
			pk := 1 + int(poolB)%3
			inShape = []int{inC, h * pk, w * pk}
			conv = must(NewConvProj(kernel, []int{inC, h, w}, spec))
			layers = []*Layer{
				must(NewLayer("pool", must(NewPoolProj(inShape, pk, poolWeight)), DefaultLIF())),
				must(NewLayer("conv", conv, DefaultLIF())),
			}
		} else {
			conv = must(NewConvProj(kernel, inShape, spec))
			out := conv.OutShape()
			var windows []int
			for d := 1; d <= min(out[1], out[2]); d++ {
				if out[1]%d == 0 && out[2]%d == 0 {
					windows = append(windows, d)
				}
			}
			layers = []*Layer{
				must(NewLayer("conv", conv, DefaultLIF())),
				must(NewLayer("pool", must(NewPoolProj(out, windows[int(poolB)%len(windows)], poolWeight)), DefaultLIF())),
			}
		}
		net := must(NewNetwork("fuzz-conv", inShape, 1.0, layers...))
		ci := 0
		if poolFirst {
			ci = 1
		}

		li := int(faultPos) % 2
		ni := int(faultPos) % net.Layers[li].NumNeurons()
		switch faultKind % 8 {
		case 1:
			net.Layers[li].SetNeuronMode(ni, NeuronDead)
		case 2:
			net.Layers[li].SetNeuronMode(ni, NeuronSaturated)
		case 3:
			net.Layers[li].SetNeuronThreshold(ni, float64(faultPos)/20)
		case 4:
			net.Layers[li].SetNeuronLeak(ni, float64(faultPos%10)/10)
		case 5:
			net.Layers[li].SetNeuronRefractory(ni, int(faultPos)%4)
		case 6:
			*net.Layers[ci].SynapseWeightAt(int(faultPos) % conv.NumSynapses()) = 0
		case 7:
			*net.Layers[ci].SynapseWeightAt(int(faultPos) % conv.NumSynapses()) = 8
		}

		steps := int(stepsB)%12 + 1
		stim := tensor.New(append([]int{steps}, net.InShape...)...)
		p := float64(density%101) / 100
		vrng := rand.New(rand.NewSource(seed + 9))
		// Inexact and wide-ranging values make the sum order observable.
		mixed := []float64{0.5, 2, -1, 0.1, -0.7, 3e15}
		for i, d := 0, stim.Data(); i < len(d); i++ {
			if vrng.Float64() >= p {
				if valueB%4 == 3 && vrng.Intn(2) == 0 {
					d[i] = math.Copysign(0, -1)
				}
				continue
			}
			switch valueB % 4 {
			case 0:
				d[i] = 1
			case 1:
				d[i] = 0.5
			case 2:
				d[i] = 2
			case 3:
				d[i] = mixed[vrng.Intn(len(mixed))]
			}
		}
		fused, ref, frec, rrec := runBoth(0, nil, net, stim)
		requireBitIdentical(t, net, fused, ref, frec, rrec, "fuzz-conv")
	})
}
