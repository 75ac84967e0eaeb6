package snn

import (
	"math/rand"
	"testing"
	"testing/quick"

	ag "github.com/repro/snntest/internal/autograd"
	"github.com/repro/snntest/internal/tensor"
)

// quickNet builds a small random dense network from a seed.
func quickNet(seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	l1 := must(NewLayer("h", must(NewDenseProj(tensor.RandNormal(rng, 0.2, 0.5, 6, 5))), DefaultLIF()))
	l2 := must(NewLayer("out", must(NewDenseProj(tensor.RandNormal(rng, 0.2, 0.5, 4, 6))), DefaultLIF()))
	return must(NewNetwork("quick", []int{5}, 1.0, l1, l2))
}

// Property: for any seed and stimulus density, every recorded spike value
// is binary and the refractory period is respected (no neuron fires twice
// within Refractory+1 steps).
func TestRefractoryIntervalProperty(t *testing.T) {
	prop := func(seed int64, density uint8) bool {
		net := quickNet(seed)
		p := 0.1 + float64(density%80)/100
		stim := tensor.RandBernoulli(rand.New(rand.NewSource(seed+1)), p,
			append([]int{25}, net.InShape...)...)
		rec := net.Run(stim)
		for li, l := range net.Layers {
			minGap := l.LIF.Refractory + 1
			for i := 0; i < l.NumNeurons(); i++ {
				last := -minGap
				train := rec.NeuronTrain(li, i)
				for s, v := range train.Data() {
					if v != 0 && v != 1 {
						return false
					}
					if v == 1 {
						if s-last < minGap {
							return false
						}
						last = s
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: graph and fast paths agree for arbitrary seeds and densities.
func TestGraphFastEquivalenceProperty(t *testing.T) {
	prop := func(seed int64, density uint8) bool {
		net := quickNet(seed)
		p := 0.1 + float64(density%80)/100
		steps := 12
		stim := tensor.RandBernoulli(rand.New(rand.NewSource(seed+2)), p,
			append([]int{steps}, net.InShape...)...)
		fast := net.Run(stim)
		frame := net.InputLen()
		nodes := make([]*ag.Node, steps)
		for s := 0; s < steps; s++ {
			nodes[s] = ag.Const(tensor.FromSlice(stim.Data()[s*frame:(s+1)*frame], net.InShape...))
		}
		graph := net.RunGraph(nodes).ToRecord(net)
		for li := range fast.Layers {
			if !tensor.Equal(fast.Layers[li], graph.Layers[li], 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: a zero stimulus never elicits spikes from a healthy network.
func TestZeroStimulusSilenceProperty(t *testing.T) {
	prop := func(seed int64) bool {
		net := quickNet(seed)
		return totalSpikes(net.Run(net.ZeroInput(20))) == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: Clone produces behaviourally identical networks.
func TestCloneEquivalenceProperty(t *testing.T) {
	prop := func(seed int64) bool {
		net := quickNet(seed)
		c := net.Clone()
		stim := tensor.RandBernoulli(rand.New(rand.NewSource(seed+3)), 0.4,
			append([]int{15}, net.InShape...)...)
		a, b := net.Run(stim), c.Run(stim)
		for li := range a.Layers {
			if !tensor.Equal(a.Layers[li], b.Layers[li], 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: a dead neuron is silent and a saturated neuron fires at every
// step, for any neuron position and stimulus.
func TestFaultModeProperty(t *testing.T) {
	prop := func(seed int64, which uint8) bool {
		net := quickNet(seed)
		li := int(which) % 2
		ni := int(which/2) % net.Layers[li].NumNeurons()
		steps := 15
		stim := tensor.RandBernoulli(rand.New(rand.NewSource(seed+4)), 0.5,
			append([]int{steps}, net.InShape...)...)

		dead := net.Clone()
		dead.Layers[li].SetNeuronMode(ni, NeuronDead)
		if tensor.Sum(dead.Run(stim).NeuronTrain(li, ni)) != 0 {
			return false
		}
		sat := net.Clone()
		sat.Layers[li].SetNeuronMode(ni, NeuronSaturated)
		return tensor.Sum(sat.Run(stim).NeuronTrain(li, ni)) == float64(steps)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
