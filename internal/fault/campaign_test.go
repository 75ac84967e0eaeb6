package fault

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"github.com/repro/snntest/internal/snn"
	"github.com/repro/snntest/internal/tensor"
)

// campaignNets builds the fixture networks the incremental-campaign
// equivalence tests sweep: every tiny builder architecture (conv, pool,
// dense, recurrent layers) plus the 2-layer dense tinyNet.
func campaignNets(t *testing.T) map[string]*snn.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(71))
	return map[string]*snn.Network{
		"tiny":        tinyNet(71),
		"nmnist":      must(snn.BuildNMNIST(rng, snn.ScaleTiny)),
		"ibm-gesture": must(snn.BuildIBMGesture(rng, snn.ScaleTiny)),
		"shd":         must(snn.BuildSHD(rng, snn.ScaleTiny)),
	}
}

// TestEquivSimulateIncrementalMatchesFull pins the incremental campaign
// (golden-trace replay + early exit) to the full re-simulation reference
// on every fixture architecture: Detected flags must be identical
// fault-for-fault, and the incremental path must do no more work.
func TestEquivSimulateIncrementalMatchesFull(t *testing.T) {
	for name, net := range campaignNets(t) {
		opts := DefaultOptions()
		if name == "tiny" {
			opts = ExtendedOptions()
		}
		faults := SampleUniverse(net, opts, 3)
		stim := denseStim(72, net, 12)
		inc := must(SimulateWith(net, faults, stim, CampaignOptions{Workers: 1}))
		full := must(SimulateWith(net, faults, stim, CampaignOptions{Workers: 1, FullResim: true}))
		for i := range faults {
			if inc.Detected[i] != full.Detected[i] {
				t.Errorf("%s: fault %d (%v): incremental %v, full %v",
					name, i, faults[i], inc.Detected[i], full.Detected[i])
			}
		}
		if inc.LayerSteps > full.LayerSteps {
			t.Errorf("%s: incremental simulated %d layer-steps, full %d",
				name, inc.LayerSteps, full.LayerSteps)
		}
		if full.LayerSteps != full.FullLayerSteps {
			t.Errorf("%s: full campaign layer-steps %d != predicted %d",
				name, full.LayerSteps, full.FullLayerSteps)
		}
	}
}

// TestEquivClassifyIncrementalMatchesFull is the criticality-campaign
// analogue: per-fault critical flags identical between replay and full
// re-simulation on every fixture.
func TestEquivClassifyIncrementalMatchesFull(t *testing.T) {
	for name, net := range campaignNets(t) {
		faults := SampleUniverse(net, DefaultOptions(), 5)
		samples := []*tensor.Tensor{denseStim(73, net, 10), denseStim(74, net, 10)}
		inc := must(ClassifyWith(net, faults, samples, CampaignOptions{Workers: 1}))
		full := must(ClassifyWith(net, faults, samples, CampaignOptions{Workers: 1, FullResim: true}))
		for i := range faults {
			if inc.Critical[i] != full.Critical[i] {
				t.Errorf("%s: fault %d (%v): incremental %v, full %v",
					name, i, faults[i], inc.Critical[i], full.Critical[i])
			}
		}
		if inc.LayerSteps > full.LayerSteps {
			t.Errorf("%s: incremental %d layer-steps > full %d", name, inc.LayerSteps, full.LayerSteps)
		}
	}
}

// TestEquivSimulateParallelMatchesSerialIncremental covers the worker
// fan-out of the incremental path (per-worker injector + scratch).
func TestEquivSimulateParallelMatchesSerialIncremental(t *testing.T) {
	net := must(snn.BuildIBMGesture(rand.New(rand.NewSource(75)), snn.ScaleTiny))
	faults := SampleUniverse(net, DefaultOptions(), 2)
	stim := denseStim(76, net, 10)
	serial := must(SimulateWith(net, faults, stim, CampaignOptions{Workers: 1}))
	parallel := must(SimulateWith(net, faults, stim, CampaignOptions{Workers: 4}))
	for i := range faults {
		if serial.Detected[i] != parallel.Detected[i] {
			t.Fatalf("fault %d (%v): serial %v, parallel %v", i, faults[i], serial.Detected[i], parallel.Detected[i])
		}
	}
	if serial.LayerSteps != parallel.LayerSteps {
		t.Errorf("layer-step counters differ: serial %d, parallel %d", serial.LayerSteps, parallel.LayerSteps)
	}
}

// TestLayerStepSavings asserts the headline economics on a layered
// architecture: on the 4-layer IBM-gesture tiny model most faults sit in
// upper layers, so golden-trace replay alone must at least halve the
// simulated layer-steps (early exit only widens the gap).
func TestLayerStepSavings(t *testing.T) {
	net := must(snn.BuildIBMGesture(rand.New(rand.NewSource(77)), snn.ScaleTiny))
	faults := Enumerate(net, DefaultOptions())
	stim := denseStim(78, net, 14)
	res := must(SimulateWith(net, faults, stim, CampaignOptions{}))
	if res.LayerSteps*2 > res.FullLayerSteps {
		t.Errorf("incremental campaign simulated %d of %d full layer-steps, want ≤ half",
			res.LayerSteps, res.FullLayerSteps)
	}
}

// TestCampaignLeavesGoldenBitIdentical is the injector state-leakage
// regression test: a full campaign (both kinds, all fault classes, with
// worker parallelism) must leave the golden network's weights and
// behaviour bit-identical — any missed revert or shared-tensor aliasing
// between the injector clones and the golden network fails it.
func TestCampaignLeavesGoldenBitIdentical(t *testing.T) {
	net := must(snn.BuildSHD(rand.New(rand.NewSource(79)), snn.ScaleTiny))
	stim := denseStim(80, net, 12)
	samples := []*tensor.Tensor{denseStim(81, net, 10), denseStim(82, net, 10)}

	var weightsBefore []float64
	for _, l := range net.Layers {
		if w := l.Proj.Weights(); w != nil {
			weightsBefore = append(weightsBefore, append([]float64(nil), w.Data()...)...)
		}
		if r, ok := l.Proj.(*snn.RecurrentProj); ok {
			weightsBefore = append(weightsBefore, append([]float64(nil), r.R.Data()...)...)
		}
	}
	before := net.Run(stim)

	faults := SampleUniverse(net, ExtendedOptions(), 3)
	must(SimulateWith(net, faults, stim, CampaignOptions{Workers: 4}))
	must(ClassifyWith(net, faults, samples, CampaignOptions{Workers: 4}))

	after := net.Run(stim)
	for li := range before.Layers {
		if !tensor.Equal(before.Layers[li], after.Layers[li], 0) {
			t.Errorf("layer %d spike record changed after campaign", li)
		}
	}
	var weightsAfter []float64
	for _, l := range net.Layers {
		if w := l.Proj.Weights(); w != nil {
			weightsAfter = append(weightsAfter, append([]float64(nil), w.Data()...)...)
		}
		if r, ok := l.Proj.(*snn.RecurrentProj); ok {
			weightsAfter = append(weightsAfter, append([]float64(nil), r.R.Data()...)...)
		}
	}
	for i := range weightsBefore {
		if weightsBefore[i] != weightsAfter[i] {
			t.Fatalf("weight %d changed: %g -> %g", i, weightsBefore[i], weightsAfter[i])
		}
	}
	if net.HasFaultOverrides() {
		t.Error("campaign left neuron fault overrides on the golden network")
	}
}

// TestProgressCalledOutsideLockConcurrently checks the reworked progress
// plumbing: with several workers the callback runs concurrently and
// lock-free, every reported count is in range, and the final count equals
// the fault total.
func TestProgressCalledOutsideLockConcurrently(t *testing.T) {
	net := tinyNet(83)
	faults := Enumerate(net, ExtendedOptions())
	stim := denseStim(84, net, 8)
	var maxSeen atomic.Int64
	_, err := SimulateWith(net, faults, stim, CampaignOptions{
		Workers: 4,
		Progress: func(done int) {
			if done < 1 || done > len(faults) {
				t.Errorf("progress out of range: %d", done)
			}
			for {
				cur := maxSeen.Load()
				if int64(done) <= cur || maxSeen.CompareAndSwap(cur, int64(done)) {
					break
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := maxSeen.Load(); got != int64(len(faults)) {
		t.Errorf("final progress = %d, want %d", got, len(faults))
	}
}
