package core

import (
	"math/rand"
	"testing"

	"github.com/repro/snntest/internal/snn"
	"github.com/repro/snntest/internal/tensor"
)

// countMasked counts activated neurons that lie inside the mask (the
// newly activated members of N_T) from a materialized ActivatedNeurons
// map: the oracle for the optimizer's mapless countActivatedMasked.
func countMasked(act map[int]bool, mask *LayerMask, offsets []int, net *snn.Network) int {
	n := 0
	for li, l := range net.Layers {
		mv := mask.maskFor(li)
		for j := 0; j < l.NumNeurons(); j++ {
			if (mv == nil || mv.Data()[j] == 1) && act[offsets[li]+j] {
				n++
			}
		}
	}
	return n
}

// TestCountActivatedMaskedMatchesMap pins the stage-1 ranking's mapless
// record scan to the map-based count over ActivatedNeurons, on random
// records (sparse enough that many neurons stay silent) and random,
// full and nil masks over every fixture.
func TestCountActivatedMaskedMatchesMap(t *testing.T) {
	for _, benchmark := range []string{"nmnist", "ibm-gesture", "shd"} {
		t.Run(benchmark, func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			net := must(snn.Build(benchmark, rng, snn.ScaleTiny))
			offsets := net.LayerOffsets()
			for trial := 0; trial < 20; trial++ {
				steps := 1 + rng.Intn(12)
				rec := snn.NewRecord(net, steps)
				density := 0.2 * rng.Float64() / float64(steps)
				for _, lt := range rec.Layers {
					copy(lt.Data(), tensor.RandBernoulli(rng, density, lt.Len()).Data())
				}
				target := map[int]bool{}
				for g := 0; g < net.NumNeurons(); g++ {
					if rng.Intn(3) == 0 {
						target[g] = true
					}
				}
				act := rec.ActivatedNeurons(offsets, 1)
				for _, mask := range []*LayerMask{TargetMask(net, target), FullMask(net), nil} {
					got := countActivatedMasked(rec, mask, net)
					if want := countMasked(act, mask, offsets, net); got != want {
						t.Fatalf("trial %d: countActivatedMasked = %d, map-based count %d", trial, got, want)
					}
				}
			}
		})
	}
}
