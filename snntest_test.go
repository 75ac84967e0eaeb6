package snntest

import (
	"context"
	"math/rand"
	"testing"
)

// TestFacadeEndToEnd drives the public API exactly as the README
// quickstart does: build → generate → enumerate → simulate → coverage.
func TestFacadeEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := must(BuildSHD(rng, ScaleTiny))
	if net.NumNeurons() == 0 || net.NumSynapses() == 0 {
		t.Fatal("degenerate network")
	}

	cfg := TestGenConfig()
	cfg.Seed = 2
	cfg.Steps1 = 30
	cfg.MaxIterations = 3
	res := must(GenerateTest(context.Background(), net, cfg))
	if res.TotalSteps() < 1 {
		t.Fatal("no stimulus")
	}

	universe := EnumerateFaults(net)
	if len(universe) != 2*net.NumNeurons()+3*net.NumSynapses() {
		t.Fatalf("universe size %d", len(universe))
	}
	// Subsample the universe so the facade round-trip stays fast.
	var faults []Fault
	for i := 0; i < len(universe); i += 11 {
		faults = append(faults, universe[i])
	}
	sim := must(SimulateFaults(net, faults, res.Stimulus, CampaignOptions{}))
	if sim.NumDetected() == 0 {
		t.Error("optimized stimulus detected nothing")
	}

	// Classify against two random stimuli acting as dataset samples.
	samples := []*Tensor{res.Stimulus}
	critical := must(ClassifyFaults(net, faults, samples, CampaignOptions{})).Critical
	cov := must(FaultCoverage(faults, sim.Detected, critical))
	if cov.TotalFaults != len(faults) {
		t.Error("coverage partition mismatch")
	}
	if cov.OverallFC() < 0 || cov.OverallFC() > 1 {
		t.Errorf("overall FC out of range: %g", cov.OverallFC())
	}
}

func TestFacadeBuilders(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if must(BuildNMNIST(rng, ScaleTiny)).Name != "nmnist" {
		t.Error("BuildNMNIST name")
	}
	if must(BuildIBMGesture(rng, ScaleTiny)).Name != "ibm-gesture" {
		t.Error("BuildIBMGesture name")
	}
	if DefaultGenConfig().Steps1 != 2000 {
		t.Error("DefaultGenConfig must carry the paper's 2000 steps")
	}
}
