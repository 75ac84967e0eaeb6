package fault

import (
	"sync"
	"testing"

	"github.com/repro/snntest/internal/tensor"
)

// Race smoke tests for the campaign worker pools — the only goroutine
// sites in the module. Under `go test -race` (verify.sh) these verify
// that per-worker injector cloning really isolates the shared golden
// network, and that worker count never changes results.

func TestSimulateRaceSmoke(t *testing.T) {
	net := tinyNet(31)
	faults := Enumerate(net, DefaultOptions())
	stim := denseStim(32, net, 12)

	serial := must(SimulateWith(net, faults, stim, CampaignOptions{Workers: 1}))

	// Several parallel campaigns against the same golden network at
	// once: the -race detector sees any sharing between worker clones.
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parallel, err := SimulateWith(net, faults, stim, CampaignOptions{Workers: 4})
			if err != nil {
				t.Error(err)
				return
			}
			for i := range serial.Detected {
				if parallel.Detected[i] != serial.Detected[i] {
					t.Errorf("fault %d: parallel detection differs from serial", i)
					return
				}
			}
		}()
	}
	wg.Wait()

	if net.HasFaultOverrides() {
		t.Error("campaign leaked fault overrides into the golden network")
	}
}

func TestClassifyRaceSmoke(t *testing.T) {
	net := tinyNet(33)
	faults := Enumerate(net, DefaultOptions())
	samples := []*tensor.Tensor{denseStim(34, net, 10), denseStim(35, net, 10)}

	serial := must(ClassifyWith(net, faults, samples, CampaignOptions{Workers: 1})).Critical
	parallel := must(ClassifyWith(net, faults, samples, CampaignOptions{Workers: 4})).Critical
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("fault %d: parallel criticality differs from serial", i)
		}
	}
	if net.HasFaultOverrides() {
		t.Error("classification leaked fault overrides into the golden network")
	}
}
