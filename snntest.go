// Package snntest is a Go reproduction of "Minimum Time Maximum Fault
// Coverage Testing of Spiking Neural Networks" (Raptis & Stratigopoulos,
// DATE 2025): a test-generation algorithm for SNN hardware accelerators
// that optimizes a short spatio-temporal binary stimulus toward maximum
// hardware fault coverage without fault simulation in the loop.
//
// This root package is the public facade over the implementation
// packages:
//
//   - internal/core      the paper's algorithm (losses L1–L5, two-stage
//     Gumbel-Softmax/STE input optimization, chunk assembly)
//   - internal/snn       discrete-time LIF simulator with a fast inference
//     path and a differentiable surrogate-gradient path
//   - internal/fault     behavioural fault models, injection, campaigns
//   - internal/baseline  the greedy prior-work methods of Table IV
//   - internal/dataset   synthetic NMNIST / DVS-gesture / SHD stand-ins
//   - internal/train     Adam, schedules, BPTT training
//   - internal/experiments  end-to-end pipelines for every table & figure
//
// The pipeline has one function per job: GenerateTest (Fig. 2, chunks
// joined by Eq. 7), CompactTest, SimulateFaults (the verification
// campaign) and ClassifyFaults (criticality labelling).
//
// Quick start:
//
//	ctx := context.Background()
//	rng := rand.New(rand.NewSource(1))
//	net, err := snntest.BuildNMNIST(rng, snntest.ScaleTiny)
//	res, err := snntest.GenerateTest(ctx, net, snntest.TestGenConfig())
//	faults := snntest.EnumerateFaults(net)
//	sim, err := snntest.SimulateFaults(net, faults, res.Stimulus, snntest.CampaignOptions{})
//	fmt.Printf("fault coverage: %.1f%%\n",
//		100*float64(sim.NumDetected())/float64(len(faults)))
package snntest

import (
	"context"
	"math/rand"

	"github.com/repro/snntest/internal/core"
	"github.com/repro/snntest/internal/fault"
	"github.com/repro/snntest/internal/snn"
	"github.com/repro/snntest/internal/tensor"
)

// Re-exported model types.
type (
	// Network is a spiking neural network (see internal/snn).
	Network = snn.Network
	// ModelScale selects tiny/small/full benchmark geometry.
	ModelScale = snn.ModelScale
	// Fault is one injectable hardware fault.
	Fault = fault.Fault
	// TestResult is the outcome of the test-generation algorithm.
	TestResult = core.Result
	// GenConfig parameterizes the test-generation algorithm.
	GenConfig = core.Config
	// Tensor is a dense float64 tensor.
	Tensor = tensor.Tensor
)

// Model scales.
const (
	ScaleTiny  = snn.ScaleTiny
	ScaleSmall = snn.ScaleSmall
	ScaleFull  = snn.ScaleFull
)

// BuildNMNIST constructs the NMNIST-style benchmark SNN (paper Fig. 4).
func BuildNMNIST(rng *rand.Rand, sc ModelScale) (*Network, error) { return snn.BuildNMNIST(rng, sc) }

// BuildIBMGesture constructs the DVS128-Gesture-style SNN (paper Fig. 5).
func BuildIBMGesture(rng *rand.Rand, sc ModelScale) (*Network, error) {
	return snn.BuildIBMGesture(rng, sc)
}

// BuildSHD constructs the Spiking-Heidelberg-Digits-style SNN (paper Fig. 6).
func BuildSHD(rng *rand.Rand, sc ModelScale) (*Network, error) { return snn.BuildSHD(rng, sc) }

// Build constructs the named benchmark SNN ("nmnist", "ibm-gesture" or
// "shd").
func Build(benchmark string, rng *rand.Rand, sc ModelScale) (*Network, error) {
	return snn.Build(benchmark, rng, sc)
}

// DefaultGenConfig returns the paper's optimization settings (Section V-C).
func DefaultGenConfig() GenConfig { return core.DefaultConfig() }

// TestGenConfig returns a reduced-budget configuration that runs in
// seconds on tiny models.
func TestGenConfig() GenConfig { return core.TestConfig() }

// GenerateTest runs the paper's test-generation algorithm on a fault-free
// network. ctx cancels generation gracefully (the partial result is
// returned) and parents the run's observability spans (internal/obs).
func GenerateTest(ctx context.Context, net *Network, cfg GenConfig) (*TestResult, error) {
	return core.GenerateContext(ctx, net, cfg)
}

// EnumerateFaults lists the paper's default fault universe: dead and
// saturated faults per neuron; dead, positively and negatively saturated
// faults per synapse.
func EnumerateFaults(net *Network) []Fault { return fault.Enumerate(net, fault.DefaultOptions()) }

// CampaignOptions tunes a fault campaign (workers, progress reporting,
// and the FullResim reference path that disables incremental replay).
type CampaignOptions = fault.CampaignOptions

// SimulateFaults runs a fault-simulation campaign of the given faults
// against a test stimulus; opts.Workers ≤ 0 uses GOMAXPROCS. The campaign
// is incremental: each faulty run replays the golden spike trace up to
// the fault's layer, re-simulates only the layers above it, and stops at
// the first output divergence; the result's LayerSteps/FullLayerSteps
// counters report the work saved.
func SimulateFaults(net *Network, faults []Fault, stimulus *Tensor, opts CampaignOptions) (*fault.SimResult, error) {
	return fault.SimulateWith(net, faults, stimulus, opts)
}

// ClassifyFaults labels faults critical (top-1 flip on ≥ 1 sample) or
// benign against the evaluation stimuli; the result's Critical flags
// carry the labels and its counters the simulated layer-steps.
func ClassifyFaults(net *Network, faults []Fault, samples []*Tensor, opts CampaignOptions) (*fault.ClassifyResult, error) {
	return fault.ClassifyWith(net, faults, samples, opts)
}

// FaultCoverage tallies per-class coverage from detection and criticality
// flags.
func FaultCoverage(faults []Fault, detected, critical []bool) (fault.Coverage, error) {
	return fault.Compute(faults, detected, critical)
}

// CompactTest drops generated chunks whose fault detections, each chunk
// simulated in isolation, are covered by the remaining chunks, shortening
// the test (the paper's future-work direction). The stats' Detected count
// is the union of the kept chunks' isolated campaigns, not a campaign of
// the compacted test (see core.CompactionStats). ctx parents the
// compaction's observability spans.
func CompactTest(ctx context.Context, net *Network, res *TestResult, faults []Fault, workers int) (*TestResult, core.CompactionStats, error) {
	return core.CompactContext(ctx, net, res, faults, workers)
}
