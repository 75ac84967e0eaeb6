package snn

import (
	"math/rand"
	"testing"

	"github.com/repro/snntest/internal/tensor"
)

func TestBuildersProduceRunnableNetworks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	builders := map[string]func(*rand.Rand, ModelScale) (*Network, error){
		"nmnist": BuildNMNIST, "ibm-gesture": BuildIBMGesture, "shd": BuildSHD,
	}
	for name, build := range builders {
		for _, sc := range []ModelScale{ScaleTiny, ScaleSmall} {
			n := must(build(rng, sc))
			if n.Name != name {
				t.Errorf("%s/%v: name = %q", name, sc, n.Name)
			}
			in := tensor.RandBernoulli(rng, 0.3, append([]int{8}, n.InShape...)...)
			rec := n.Run(in)
			if rec.Steps != 8 {
				t.Errorf("%s/%v: record steps = %d", name, sc, rec.Steps)
			}
			if n.NumNeurons() <= n.OutputLen() {
				t.Errorf("%s/%v: implausible neuron count %d", name, sc, n.NumNeurons())
			}
			if n.NumSynapses() == 0 {
				t.Errorf("%s/%v: no synapses", name, sc)
			}
		}
	}
}

func TestBuildersOutputClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if got := must(BuildNMNIST(rng, ScaleTiny)).OutputLen(); got != 10 {
		t.Errorf("NMNIST classes = %d, want 10", got)
	}
	if got := must(BuildIBMGesture(rng, ScaleTiny)).OutputLen(); got != 11 {
		t.Errorf("IBM classes = %d, want 11", got)
	}
	if got := must(BuildSHD(rng, ScaleTiny)).OutputLen(); got != 20 {
		t.Errorf("SHD classes = %d, want 20", got)
	}
}

func TestBuildFullScaleGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := must(BuildNMNIST(rng, ScaleFull))
	if n.InShape[0] != 2 || n.InShape[1] != 34 || n.InShape[2] != 34 {
		t.Errorf("NMNIST full input shape = %v, want [2 34 34]", n.InShape)
	}
	g := must(BuildIBMGesture(rng, ScaleFull))
	if g.InShape[1] != 128 {
		t.Errorf("IBM full input = %v, want 2×128×128", g.InShape)
	}
	s := must(BuildSHD(rng, ScaleFull))
	if s.InShape[0] != 700 {
		t.Errorf("SHD full input = %v, want [700]", s.InShape)
	}
}

func TestSHDIsRecurrent(t *testing.T) {
	n := must(BuildSHD(rand.New(rand.NewSource(4)), ScaleTiny))
	if _, ok := n.Layers[0].Proj.(*RecurrentProj); !ok {
		t.Error("SHD hidden layer must be recurrent")
	}
}

func TestSampleSteps(t *testing.T) {
	if got := must(SampleSteps("nmnist", ScaleFull)); got != 300 {
		t.Errorf("nmnist full = %d, want 300 (300 ms at 1 kHz)", got)
	}
	if got := must(SampleSteps("ibm-gesture", ScaleFull)); got != 1450 {
		t.Errorf("ibm full = %d, want 1450", got)
	}
	if got := must(SampleSteps("shd", ScaleTiny)); got != 100 {
		t.Errorf("shd tiny = %d, want 100", got)
	}
	if _, err := SampleSteps("nope", ScaleTiny); err == nil {
		t.Error("unknown benchmark must error")
	}
}

func TestModelScaleString(t *testing.T) {
	for sc, want := range map[ModelScale]string{ScaleTiny: "tiny", ScaleSmall: "small", ScaleFull: "full"} {
		if sc.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(sc), sc.String(), want)
		}
	}
}

func TestRecordHelpers(t *testing.T) {
	n := testNet(30)
	rng := rand.New(rand.NewSource(31))
	in := tensor.RandBernoulli(rng, 0.5, append([]int{10}, n.InShape...)...)
	rec := n.Run(in)

	// Counts must equal per-neuron sums of trains.
	c := rec.Counts(0)
	for i := 0; i < 3; i++ {
		if got := tensor.Sum(rec.NeuronTrain(0, i)); got != c.At(i) {
			t.Errorf("neuron %d count = %g, train sum = %g", i, c.At(i), got)
		}
	}

	// Temporal diversity of an alternating train is steps-1.
	r2 := NewRecord(n, 4)
	for s := 0; s < 4; s++ {
		r2.Layers[0].Set(float64(s%2), s, 0)
	}
	if td := r2.TemporalDiversity(0); td.At(0) != 3 {
		t.Errorf("TD of 0101 = %g, want 3", td.At(0))
	}

	// ActivatedNeurons respects the threshold and offsets.
	act := rec.ActivatedNeurons(n.LayerOffsets(), 1)
	for g := range act {
		if g < 0 || g >= n.NumNeurons() {
			t.Errorf("activated neuron id %d out of range", g)
		}
	}
}
