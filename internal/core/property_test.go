package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/repro/snntest/internal/tensor"
)

// Property: Assemble obeys Eq. 8 for any set of chunk durations:
// T_test = Σ_{j<d} 2·T_j + T_d, with zero separators exactly between
// chunks.
func TestAssembleEq8Property(t *testing.T) {
	net := smallNet(1)
	prop := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 6 {
			return true
		}
		var chunks []*tensor.Tensor
		want := 0
		for i, r := range raw {
			d := 1 + int(r%7)
			chunks = append(chunks, tensor.Full(1, d, 4))
			want += d
			if i < len(raw)-1 {
				want += d
			}
		}
		stim := Assemble(net, chunks)
		if stim.Dim(0) != want {
			return false
		}
		// Total spike mass equals the chunk mass (separators are silent).
		mass := 0.0
		for _, c := range chunks {
			mass += tensor.Sum(c)
		}
		return tensor.Sum(stim) == mass
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: TargetMask selects exactly the requested neurons for any
// random target subset.
func TestTargetMaskProperty(t *testing.T) {
	net := smallNet(2)
	total := net.NumNeurons()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		target := map[int]bool{}
		for g := 0; g < total; g++ {
			if rng.Float64() < 0.5 {
				target[g] = true
			}
		}
		m := TargetMask(net, target)
		if m.Count() != len(target) {
			return false
		}
		offs := net.LayerOffsets()
		for li, l := range net.Layers {
			for j := 0; j < l.NumNeurons(); j++ {
				want := 0.0
				if target[offs[li]+j] {
					want = 1
				}
				if m.Masks[li].Data()[j] != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: generated stimuli are always binary and of positive duration,
// regardless of seed.
func TestGenerateBinaryProperty(t *testing.T) {
	cfg := TestConfig()
	cfg.Steps1 = 12
	cfg.MaxIterations = 2
	cfg.MaxGrowth = 1
	prop := func(seed int64) bool {
		net := smallNet(seed)
		c := cfg
		c.Seed = seed + 1
		res := must(GenerateContext(context.Background(), net, c))
		if res.TotalSteps() < 1 {
			return false
		}
		for _, v := range res.Stimulus.Data() {
			if v != 0 && v != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5}); err != nil {
		t.Error(err)
	}
}

// Property: the reported activated set never shrinks across iterations of
// the trace (N_A is monotone).
func TestActivatedMonotoneProperty(t *testing.T) {
	net := smallNet(7)
	cfg := TestConfig()
	cfg.Steps1 = 25
	cfg.Seed = 8
	res := must(GenerateContext(context.Background(), net, cfg))
	prev := -1
	for _, tr := range res.Trace {
		if tr.TotalActivated < prev {
			t.Fatalf("activated count shrank: %+v", res.Trace)
		}
		prev = tr.TotalActivated
	}
}
