package fault

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/repro/snntest/internal/snn"
	"github.com/repro/snntest/internal/tensor"
)

// tinyNet builds a small dense 2-layer network with moderate activity.
func tinyNet(seed int64) *snn.Network {
	rng := rand.New(rand.NewSource(seed))
	l1 := must(snn.NewLayer("h", must(snn.NewDenseProj(tensor.RandNormal(rng, 0.2, 0.5, 6, 4))), snn.DefaultLIF()))
	l2 := must(snn.NewLayer("out", must(snn.NewDenseProj(tensor.RandNormal(rng, 0.2, 0.5, 3, 6))), snn.DefaultLIF()))
	return must(snn.NewNetwork("tiny", []int{4}, 1.0, l1, l2))
}

func denseStim(seed int64, net *snn.Network, steps int) *tensor.Tensor {
	return tensor.RandBernoulli(rand.New(rand.NewSource(seed)), 0.6, append([]int{steps}, net.InShape...)...)
}

func TestKindPredicates(t *testing.T) {
	neurons := []Kind{NeuronDead, NeuronSaturated, NeuronThresholdVar, NeuronLeakVar, NeuronRefractoryVar}
	synapses := []Kind{SynapseDead, SynapseSatPos, SynapseSatNeg, SynapseBitFlip}
	for _, k := range neurons {
		if !k.IsNeuron() {
			t.Errorf("%v should be a neuron kind", k)
		}
	}
	for _, k := range synapses {
		if k.IsNeuron() {
			t.Errorf("%v should be a synapse kind", k)
		}
	}
	for _, k := range append(neurons, synapses...) {
		if k.String() == "" {
			t.Errorf("empty String for %d", k)
		}
	}
}

func TestEnumerateDefaultMatchesPaperArithmetic(t *testing.T) {
	// The paper's Table II counts are 2·#neurons + 3·#synapses.
	net := tinyNet(1)
	faults := Enumerate(net, DefaultOptions())
	want := 2*net.NumNeurons() + 3*net.NumSynapses()
	if len(faults) != want {
		t.Errorf("universe size = %d, want %d", len(faults), want)
	}
	if got := UniverseSize(net, DefaultOptions()); got != want {
		t.Errorf("UniverseSize = %d, want %d", got, want)
	}
}

func TestEnumerateExtendedSize(t *testing.T) {
	net := tinyNet(2)
	opts := ExtendedOptions()
	faults := Enumerate(net, opts)
	// per neuron: 2 core + 2 deltas × 2 params + 1 refractory = 7
	// per synapse: 3 core + 4 bits = 7
	want := 7*net.NumNeurons() + 7*net.NumSynapses()
	if len(faults) != want {
		t.Errorf("extended universe = %d, want %d", len(faults), want)
	}
	if got := UniverseSize(net, opts); got != want {
		t.Errorf("UniverseSize = %d, want %d", got, want)
	}
}

func TestEnumerateDeterministicOrder(t *testing.T) {
	net := tinyNet(3)
	a := Enumerate(net, DefaultOptions())
	b := Enumerate(net, DefaultOptions())
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("enumeration order must be deterministic")
		}
	}
}

func TestSampleUniverseStride(t *testing.T) {
	net := tinyNet(4)
	all := Enumerate(net, DefaultOptions())
	s := SampleUniverse(net, DefaultOptions(), 5)
	if len(s) != (len(all)+4)/5 {
		t.Errorf("stride-5 sample = %d of %d", len(s), len(all))
	}
	if s[0] != all[0] || s[1] != all[5] {
		t.Error("sample must take every 5th fault")
	}
	if got := SampleUniverse(net, DefaultOptions(), 1); len(got) != len(all) {
		t.Error("stride 1 must return the full universe")
	}
}

func TestInjectorRevertRestoresBehaviour(t *testing.T) {
	net := tinyNet(5)
	stim := denseStim(6, net, 12)
	goldenOut := net.Run(stim).Output().Clone()

	inj := NewInjector(net)
	for _, f := range Enumerate(net, ExtendedOptions()) {
		revert := inj.Apply(f)
		revert()
	}
	out := inj.Net().Run(stim).Output()
	if !tensor.Equal(goldenOut, out, 0) {
		t.Error("after applying and reverting every fault, behaviour must match golden")
	}
	// And the golden network itself must never have been touched.
	if !tensor.Equal(goldenOut, net.Run(stim).Output(), 0) {
		t.Error("injector mutated the golden network")
	}
}

// TestInjectorRevertRestoresOverrideFreeState pins that reverting any
// fault leaves a healthy working network override-free — so the next
// fault's simulation keeps stepLayer's healthy loop — with spike records
// equal to a fresh clone's, that the override slices are reused rather
// than re-made per fault, and that overrides the golden network already
// carried survive a revert.
func TestInjectorRevertRestoresOverrideFreeState(t *testing.T) {
	net := tinyNet(8)
	stim := denseStim(9, net, 12)
	want := net.Clone().Run(stim)
	faults := Enumerate(net, ExtendedOptions())

	inj := NewInjector(net)
	for _, f := range faults {
		inj.Apply(f)()
		if inj.Net().HasFaultOverrides() {
			t.Fatalf("%v: reverted network still reports fault overrides", f)
		}
		got, _ := inj.Scratch().RunFrom(0, nil, stim)
		for li := range want.Layers {
			if !tensor.Equal(got.Layers[li], want.Layers[li], 0) {
				t.Fatalf("%v: layer %d spike record differs from a fresh clone's after revert", f, li)
			}
		}
	}
	for _, f := range faults {
		if !f.Kind.IsNeuron() {
			continue
		}
		// One allocation is the revert closure itself.
		if allocs := testing.AllocsPerRun(5, func() { inj.Apply(f)() }); allocs > 1 {
			t.Fatalf("%v: Apply+revert allocates %.0f times, want at most the revert closure", f, allocs)
		}
	}

	faulty := net.Clone()
	faulty.Layers[0].SetNeuronMode(1, snn.NeuronDead)
	inj = NewInjector(faulty)
	inj.Apply(Fault{Kind: NeuronSaturated, Layer: 0, Neuron: 2})()
	if l := inj.Net().Layers[0]; l.Modes == nil || l.Modes[1] != snn.NeuronDead || l.Modes[2] != snn.NeuronNormal {
		t.Fatalf("revert must keep the golden network's own overrides, got modes %v", l.Modes)
	}
}

func TestNeuronFaultInjection(t *testing.T) {
	net := tinyNet(7)
	stim := denseStim(8, net, 15)
	inj := NewInjector(net)

	revert := inj.Apply(Fault{Kind: NeuronSaturated, Layer: 1, Neuron: 0})
	rec := inj.Net().Run(stim)
	if got := tensor.Sum(rec.NeuronTrain(1, 0)); got != 15 {
		t.Errorf("saturated neuron fired %g/15 steps", got)
	}
	revert()

	revert = inj.Apply(Fault{Kind: NeuronDead, Layer: 0, Neuron: 2})
	rec = inj.Net().Run(stim)
	if got := tensor.Sum(rec.NeuronTrain(0, 2)); got != 0 {
		t.Errorf("dead neuron fired %g times", got)
	}
	revert()
}

func TestParametricFaultInjection(t *testing.T) {
	net := tinyNet(9)
	inj := NewInjector(net)

	revert := inj.Apply(Fault{Kind: NeuronThresholdVar, Layer: 0, Neuron: 1, Delta: 1.5})
	if got := inj.Net().Layers[0].Thresholds[1]; math.Abs(got-1.5) > 1e-12 {
		t.Errorf("threshold override = %g, want 1.5 (1.0 × 1.5)", got)
	}
	revert()

	revert = inj.Apply(Fault{Kind: NeuronLeakVar, Layer: 0, Neuron: 1, Delta: 2.0})
	if got := inj.Net().Layers[0].Leaks[1]; got != 1.0 {
		t.Errorf("leak override = %g, want clamp at 1.0", got)
	}
	revert()

	revert = inj.Apply(Fault{Kind: NeuronRefractoryVar, Layer: 0, Neuron: 1, Delta: 3})
	if got := inj.Net().Layers[0].Refracs[1]; got != snn.DefaultLIF().Refractory+3 {
		t.Errorf("refractory override = %d", got)
	}
	revert()
}

func TestSynapseFaultInjection(t *testing.T) {
	net := tinyNet(10)
	maxAbs := net.Layers[0].MaxAbsWeight()
	inj := NewInjector(net)

	w0 := inj.Net().Layers[0].SynapseWeightAt(0)
	orig := *w0

	revert := inj.Apply(Fault{Kind: SynapseDead, Layer: 0, Synapse: 0})
	if *w0 != 0 {
		t.Error("dead synapse weight must be 0")
	}
	revert()
	if *w0 != orig {
		t.Error("revert failed")
	}

	revert = inj.Apply(Fault{Kind: SynapseSatPos, Layer: 0, Synapse: 0})
	if math.Abs(*w0-SaturationFactor*maxAbs) > 1e-12 {
		t.Errorf("sat-pos weight = %g, want %g", *w0, SaturationFactor*maxAbs)
	}
	revert()

	revert = inj.Apply(Fault{Kind: SynapseSatNeg, Layer: 0, Synapse: 0})
	if math.Abs(*w0+SaturationFactor*maxAbs) > 1e-12 {
		t.Errorf("sat-neg weight = %g", *w0)
	}
	revert()
}

func TestBitFlipQuantization(t *testing.T) {
	// Sign-bit flip of a positive weight makes it negative.
	w := flipQuantizedBit(1.0, 7, 1.0)
	if w >= 0 {
		t.Errorf("sign-bit flip of 1.0 = %g, want negative", w)
	}
	// LSB flip changes the weight by exactly one quantization step
	// relative to the quantized baseline (0.5 quantizes to code 64).
	v := flipQuantizedBit(0.5, 0, 1.0)
	step := 1.0 / 127
	quantized := 64 * step
	if math.Abs(math.Abs(v-quantized)-step) > 1e-12 {
		t.Errorf("LSB flip moved by %g from quantized value, want %g", math.Abs(v-quantized), step)
	}
	// Zero max weight: no-op.
	if flipQuantizedBit(0.3, 3, 0) != 0.3 {
		t.Error("zero-range layer must be untouched")
	}
	// Flip twice restores the original code.
	once := flipQuantizedBit(0.5, 4, 1.0)
	twice := flipQuantizedBit(once, 4, 1.0)
	if math.Abs(twice-float64(int8(math.Round(0.5*127)))*1.0/127) > 1e-9 {
		t.Errorf("double flip = %g, want quantized original", twice)
	}
}

func TestSimulateDetectsInjectedFaults(t *testing.T) {
	net := tinyNet(11)
	stim := denseStim(12, net, 20)
	// Saturating an output neuron is trivially detectable; a synapse on a
	// never-spiking path may not be. Check the obvious ones.
	faults := []Fault{
		{Kind: NeuronSaturated, Layer: 1, Neuron: 0},
		{Kind: NeuronSaturated, Layer: 1, Neuron: 1},
		{Kind: NeuronSaturated, Layer: 1, Neuron: 2},
	}
	res := must(SimulateWith(net, faults, stim, CampaignOptions{Workers: 1}))
	golden := net.Run(stim)
	for i := range faults {
		count := tensor.Sum(golden.NeuronTrain(1, faults[i].Neuron))
		if count < 20 && !res.Detected[i] {
			t.Errorf("saturated output neuron %d (golden count %g) must be detected", i, count)
		}
	}
	if res.Elapsed <= 0 {
		t.Error("elapsed time not measured")
	}
}

func TestSimulateParallelMatchesSerial(t *testing.T) {
	net := tinyNet(13)
	stim := denseStim(14, net, 15)
	faults := Enumerate(net, DefaultOptions())
	serial := must(SimulateWith(net, faults, stim, CampaignOptions{Workers: 1}))
	parallel := must(SimulateWith(net, faults, stim, CampaignOptions{Workers: 4}))
	for i := range faults {
		if serial.Detected[i] != parallel.Detected[i] {
			t.Fatalf("fault %d (%v): serial %v, parallel %v", i, faults[i], serial.Detected[i], parallel.Detected[i])
		}
	}
	if serial.NumDetected() != parallel.NumDetected() {
		t.Error("detected counts differ")
	}
}

func TestSimulateProgressCallback(t *testing.T) {
	net := tinyNet(15)
	stim := denseStim(16, net, 5)
	faults := Enumerate(net, DefaultOptions())
	calls := 0
	last := 0
	SimulateWith(net, faults, stim, CampaignOptions{Workers: 1, Progress: func(done int) { calls++; last = done }})
	if calls == 0 || last != len(faults) {
		t.Errorf("progress: %d calls, last %d of %d", calls, last, len(faults))
	}
}

func TestZeroStimulusDetectsOnlySaturation(t *testing.T) {
	// With a zero input, only saturated-neuron faults can reach the
	// output; every dead-neuron and synapse fault is undetectable.
	net := tinyNet(17)
	stim := net.ZeroInput(10)
	faults := Enumerate(net, DefaultOptions())
	res := must(SimulateWith(net, faults, stim, CampaignOptions{Workers: 1}))
	for i, f := range faults {
		if res.Detected[i] && f.Kind != NeuronSaturated {
			t.Errorf("fault %v detected by zero stimulus", f)
		}
	}
	// Output-layer saturation is always detected.
	for i, f := range faults {
		if f.Kind == NeuronSaturated && f.Layer == 1 && !res.Detected[i] {
			t.Errorf("output saturation %v not detected by zero stimulus", f)
		}
	}
}

func TestClassifyCriticalFaults(t *testing.T) {
	net := tinyNet(18)
	samples := []*tensor.Tensor{denseStim(19, net, 15), denseStim(20, net, 15)}
	faults := []Fault{
		{Kind: NeuronSaturated, Layer: 1, Neuron: 0}, // floods class 0: flips anything not predicted 0
		{Kind: SynapseDead, Layer: 0, Synapse: 0},
	}
	critical := must(ClassifyWith(net, faults, samples, CampaignOptions{Workers: 1})).Critical
	pred := net.Predict(samples[0])
	pred2 := net.Predict(samples[1])
	if pred != 0 || pred2 != 0 {
		if !critical[0] {
			t.Error("output saturation must be critical when golden prediction is not that class")
		}
	}
	if len(critical) != 2 {
		t.Fatal("classification length mismatch")
	}
}

func TestComputeCoverage(t *testing.T) {
	faults := []Fault{
		{Kind: NeuronDead}, {Kind: NeuronDead},
		{Kind: SynapseDead}, {Kind: SynapseSatPos},
	}
	detected := []bool{true, false, true, true}
	critical := []bool{true, true, false, true}
	cov := must(Compute(faults, detected, critical))
	if cov.CriticalNeuron.Detected != 1 || cov.CriticalNeuron.Total != 2 {
		t.Errorf("critical neuron = %v", cov.CriticalNeuron)
	}
	if cov.BenignSynapse.Detected != 1 || cov.BenignSynapse.Total != 1 {
		t.Errorf("benign synapse = %v", cov.BenignSynapse)
	}
	if cov.CriticalSynapse.FC() != 1 {
		t.Errorf("critical synapse FC = %g", cov.CriticalSynapse.FC())
	}
	if math.Abs(cov.OverallFC()-0.75) > 1e-12 {
		t.Errorf("overall FC = %g, want 0.75", cov.OverallFC())
	}
	if math.Abs(cov.CriticalFC()-2.0/3) > 1e-12 {
		t.Errorf("critical FC = %g, want 2/3", cov.CriticalFC())
	}
	if (ClassCoverage{}).FC() != 1 {
		t.Error("empty class must be vacuously covered")
	}
}

// TestAccuracyDropOfDestructiveFault pins the escape accuracy drop of one
// fault: saturating an output neuron makes every prediction that class, so
// on samples labelled with the golden prediction (golden accuracy 1) the
// drop is exactly the fraction labelled otherwise.
func TestAccuracyDropOfDestructiveFault(t *testing.T) {
	net := tinyNet(21)
	var samples []*tensor.Tensor
	var labels []int
	for i := 0; i < 6; i++ {
		s := denseStim(int64(30+i), net, 15)
		samples = append(samples, s)
		labels = append(labels, net.Predict(s)) // golden accuracy = 1 by construction
	}
	faults := []Fault{{Kind: NeuronSaturated, Layer: 1, Neuron: 2}}
	drop, _ := MaxEscapeDrop(net, faults, []bool{false}, []bool{true}, samples, labels)
	wrongGolden := 0
	for _, l := range labels {
		if l != 2 {
			wrongGolden++
		}
	}
	want := float64(wrongGolden) / float64(len(samples))
	if math.Abs(drop-want) > 1e-12 {
		t.Errorf("accuracy drop = %g, want %g", drop, want)
	}
}

// TestMaxEscapeDrop pins which faults count as escapes: a detected fault
// and a non-critical fault contribute nothing, and each class keeps the
// drop of its own undetected critical faults only.
func TestMaxEscapeDrop(t *testing.T) {
	net := tinyNet(21)
	var samples []*tensor.Tensor
	var labels []int
	for i := 0; i < 6; i++ {
		s := denseStim(int64(30+i), net, 15)
		samples = append(samples, s)
		labels = append(labels, net.Predict(s))
	}
	saturated := Fault{Kind: NeuronSaturated, Layer: 1, Neuron: 2}
	want, _ := MaxEscapeDrop(net, []Fault{saturated}, []bool{false}, []bool{true}, samples, labels)
	if want == 0 {
		t.Fatal("fixture: the saturated output neuron must drop accuracy")
	}
	faults := []Fault{
		saturated, // escape, critical
		{Kind: SynapseDead, Layer: 0, Synapse: 0},    // detected
		{Kind: NeuronSaturated, Layer: 1, Neuron: 0}, // escape, not critical
	}
	detected := []bool{false, true, false}
	critical := []bool{true, true, false}
	nDrop, sDrop := MaxEscapeDrop(net, faults, detected, critical, samples, labels)
	if nDrop != want {
		t.Errorf("neuron escape drop = %g, want %g from the one critical escape", nDrop, want)
	}
	if sDrop != 0 {
		t.Errorf("synapse escape drop = %g; the synapse fault was detected so its drop must be 0", sDrop)
	}
	if d, _ := MaxEscapeDrop(net, faults, []bool{true, true, true}, critical, samples, labels); d != 0 {
		t.Errorf("all-detected neuron escape drop = %g, want 0", d)
	}
}

// TestValidateRejectsNonFiniteWeights pins the finite-weight precondition
// of the event-driven kernels at the campaign boundary: a NaN or ±Inf
// weight anywhere in the golden network, recurrent R included, is an
// error naming the tensor and index before any fault is simulated.
func TestValidateRejectsNonFiniteWeights(t *testing.T) {
	shd := must(snn.BuildSHD(rand.New(rand.NewSource(12)), snn.ScaleTiny))
	rec := shd.Layers[0]
	wLen := rec.Proj.Weights().Len()
	cases := []struct {
		net     *snn.Network
		layer   int
		synapse int
		want    string
	}{
		{tinyNet(11), 1, 5, `layer "out" W[5]`},
		{shd, 0, 7, `layer "` + rec.Name + `" W[7]`},
		{shd, 0, wLen + 2, `layer "` + rec.Name + `" R[2]`},
	}
	for _, c := range cases {
		if err := Validate(c.net, Enumerate(c.net, DefaultOptions())); err != nil {
			t.Fatalf("finite network rejected: %v", err)
		}
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			net := c.net.Clone()
			*net.Layers[c.layer].SynapseWeightAt(c.synapse) = bad
			err := Validate(net, nil)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("weight %v at %s: Validate error %v, want one naming %s", bad, c.want, err, c.want)
			}
		}
	}
}

// TestCampaignInputErrorsNameTheirFunction pins the campaign drivers'
// input-error prefixes to the exported functions that return them: a
// stimulus of the wrong shape fails SimulateWith, and a bad labelled
// sample fails ClassifyWith with its index.
func TestCampaignInputErrorsNameTheirFunction(t *testing.T) {
	net := tinyNet(3)
	bad := tensor.New(4, 5) // frames of 5 where the network takes 4
	faults := Enumerate(net, DefaultOptions())
	if _, err := SimulateWith(net, faults, bad, CampaignOptions{}); err == nil || !strings.HasPrefix(err.Error(), "fault: SimulateWith: ") {
		t.Errorf("SimulateWith error %v, want prefix %q", err, "fault: SimulateWith: ")
	}
	samples := []*tensor.Tensor{denseStim(1, net, 4), bad}
	if _, err := ClassifyWith(net, faults, samples, CampaignOptions{}); err == nil || !strings.HasPrefix(err.Error(), "fault: ClassifyWith: sample 1: ") {
		t.Errorf("ClassifyWith error %v, want prefix %q", err, "fault: ClassifyWith: sample 1: ")
	}
}
