package fault

import (
	"math/rand"
	"testing"

	"github.com/repro/snntest/internal/snn"
	"github.com/repro/snntest/internal/tensor"
)

func BenchmarkInjectRevert(b *testing.B) {
	net := tinyNet(1)
	inj := NewInjector(net)
	faults := Enumerate(net, ExtendedOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := faults[i%len(faults)]
		revert := inj.Apply(f)
		revert()
	}
}

// benchmarkSimulate runs the campaign either incrementally (the default
// golden-trace replay + early-exit path) or with full re-simulation, on
// the 4-layer IBM-gesture tiny model where the layer-skip saving shows.
func benchmarkSimulate(b *testing.B, full bool) {
	net, err := snn.BuildIBMGesture(rand.New(rand.NewSource(2)), snn.ScaleTiny)
	if err != nil {
		b.Fatal(err)
	}
	faults := Enumerate(net, DefaultOptions())
	stim := denseStim(3, net, 20)
	var res *SimResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = SimulateWith(net, faults, stim, CampaignOptions{Workers: 1, FullResim: full})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(faults)), "faults")
	b.ReportMetric(float64(res.LayerSteps), "layer-steps")
}

func BenchmarkSimulateUniverse(b *testing.B)     { benchmarkSimulate(b, false) }
func BenchmarkSimulateUniverseFull(b *testing.B) { benchmarkSimulate(b, true) }

func BenchmarkRunFromReplay(b *testing.B) {
	// Micro-benchmark of the replay fast path itself: re-simulate only the
	// output layer against a recorded golden trace.
	net := tinyNet(7)
	stim := denseStim(8, net, 20)
	golden := net.Run(stim)
	sc := net.NewScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.RunFrom(len(net.Layers)-1, golden, stim)
	}
}

func BenchmarkClassify(b *testing.B) {
	net := tinyNet(4)
	faults := Enumerate(net, DefaultOptions())
	samples := []*tensor.Tensor{denseStim(5, net, 15), denseStim(6, net, 15)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ClassifyWith(net, faults, samples, CampaignOptions{Workers: 1})
	}
}
