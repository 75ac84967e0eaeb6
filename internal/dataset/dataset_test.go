package dataset

import (
	"math/rand"
	"testing"

	"github.com/repro/snntest/internal/snn"
	"github.com/repro/snntest/internal/tensor"
)

func TestGeneratorsShapeAndSplit(t *testing.T) {
	cfg := Config{TrainPerClass: 2, TestPerClass: 1, Steps: 12, Seed: 1}
	cases := []struct {
		name    string
		ds      *Dataset
		classes int
		inShape []int
	}{
		{"nmnist", GenNMNIST(cfg, 11), 10, []int{2, 11, 11}},
		{"gesture", GenGesture(cfg, 16), 11, []int{2, 16, 16}},
		{"shd", GenSHD(cfg, 40), 20, []int{40}},
	}
	for _, c := range cases {
		if c.ds.NumClasses != c.classes {
			t.Errorf("%s: classes = %d, want %d", c.name, c.ds.NumClasses, c.classes)
		}
		if len(c.ds.Train) != 2*c.classes || len(c.ds.Test) != c.classes {
			t.Errorf("%s: split sizes %d/%d", c.name, len(c.ds.Train), len(c.ds.Test))
		}
		for _, s := range c.ds.Train {
			shape := s.Input.Shape()
			if shape[0] != 12 {
				t.Fatalf("%s: steps = %d, want 12", c.name, shape[0])
			}
			for i, d := range c.inShape {
				if shape[i+1] != d {
					t.Fatalf("%s: frame shape %v, want %v", c.name, shape[1:], c.inShape)
				}
			}
			if s.Label < 0 || s.Label >= c.classes {
				t.Fatalf("%s: label %d out of range", c.name, s.Label)
			}
		}
	}
}

func TestSamplesAreBinaryAndNonEmpty(t *testing.T) {
	cfg := Config{TrainPerClass: 1, TestPerClass: 1, Steps: 20, Seed: 2}
	for _, ds := range []*Dataset{GenNMNIST(cfg, 11), GenGesture(cfg, 16), GenSHD(cfg, 40)} {
		for _, s := range append(ds.Train, ds.Test...) {
			spikes := 0.0
			for _, v := range s.Input.Data() {
				if v != 0 && v != 1 {
					t.Fatalf("%s: non-binary input value %g", ds.Name, v)
				}
				spikes += v
			}
			if spikes == 0 {
				t.Errorf("%s class %d: sample has no events", ds.Name, s.Label)
			}
			// Event streams should be sparse, not dense noise.
			if frac := spikes / float64(s.Input.Len()); frac > 0.5 {
				t.Errorf("%s class %d: implausibly dense events (%.0f%%)", ds.Name, s.Label, 100*frac)
			}
		}
	}
}

func TestDeterministicGeneration(t *testing.T) {
	cfg := Config{TrainPerClass: 1, TestPerClass: 1, Steps: 10, Seed: 7}
	a := GenSHD(cfg, 30)
	b := GenSHD(cfg, 30)
	for i := range a.Train {
		if !tensor.Equal(a.Train[i].Input, b.Train[i].Input, 0) {
			t.Fatal("same seed must reproduce identical datasets")
		}
	}
	cfg.Seed = 8
	c := GenSHD(cfg, 30)
	same := true
	for i := range a.Train {
		if !tensor.Equal(a.Train[i].Input, c.Train[i].Input, 0) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should produce different datasets")
	}
}

func TestClassesAreDistinguishable(t *testing.T) {
	// Samples of the same class must be more similar (in per-pixel count
	// space) to each other than to samples of a different class — a cheap
	// separability proxy that guards against degenerate generators.
	cfg := Config{TrainPerClass: 3, TestPerClass: 0, Steps: 20, Seed: 3}
	for _, ds := range []*Dataset{GenNMNIST(cfg, 11), GenGesture(cfg, 16), GenSHD(cfg, 40)} {
		counts := make(map[int][]*tensor.Tensor)
		for _, s := range ds.Train {
			c := tensor.SumCols(s.Input.Reshape(s.Input.Dim(0), s.Input.Len()/s.Input.Dim(0)))
			counts[s.Label] = append(counts[s.Label], c)
		}
		intra := avgDist(counts[0][0], counts[0][1], counts[0][2])
		inter := 0.0
		pairs := 0
		for c := 1; c < 4; c++ {
			inter += tensor.L1Diff(counts[0][0], counts[c][0])
			pairs++
		}
		inter /= float64(pairs)
		if !(inter > intra) {
			t.Errorf("%s: inter-class distance %.1f not larger than intra-class %.1f", ds.Name, inter, intra)
		}
	}
}

func avgDist(ts ...*tensor.Tensor) float64 {
	total, n := 0.0, 0
	for i := 0; i < len(ts); i++ {
		for j := i + 1; j < len(ts); j++ {
			total += tensor.L1Diff(ts[i], ts[j])
			n++
		}
	}
	return total / float64(n)
}

func TestForBenchmarkMatchesNetworks(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cfg := Config{TrainPerClass: 1, TestPerClass: 1, Steps: 8, Seed: 5}
	for _, build := range []func(*rand.Rand, snn.ModelScale) (*snn.Network, error){
		snn.BuildNMNIST, snn.BuildIBMGesture, snn.BuildSHD,
	} {
		net := must(build(rng, snn.ScaleTiny))
		ds := must(ForBenchmark(net, cfg))
		// The generated samples must be directly runnable on the network.
		rec := net.Run(ds.Train[0].Input)
		if rec.Steps != 8 {
			t.Errorf("%s: record steps = %d", net.Name, rec.Steps)
		}
		if ds.NumClasses != net.OutputLen() {
			t.Errorf("%s: dataset classes %d != network outputs %d", net.Name, ds.NumClasses, net.OutputLen())
		}
	}
}

func TestForBenchmarkUnknownErrors(t *testing.T) {
	net := must(snn.NewNetwork("mystery", []int{1}, 1.0,
		must(snn.NewLayer("d", must(snn.NewDenseProj(tensor.New(1, 1))), snn.DefaultLIF()))))
	if _, err := ForBenchmark(net, Config{TrainPerClass: 1, TestPerClass: 1, Steps: 5, Seed: 1}); err == nil {
		t.Error("expected error for unknown benchmark")
	}
}

func TestInputsSplit(t *testing.T) {
	ds := GenSHD(Config{TrainPerClass: 1, TestPerClass: 2, Steps: 5, Seed: 6}, 20)
	ins, labels := ds.Inputs("test")
	if len(ins) != 40 || len(labels) != 40 {
		t.Errorf("test split = %d/%d, want 40/40", len(ins), len(labels))
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown split must panic")
		}
	}()
	ds.Inputs("validation")
}
