package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/repro/snntest/internal/fault"
	"github.com/repro/snntest/internal/snn"
	"github.com/repro/snntest/internal/tensor"
)

func TestAssembleInterleavesZeros(t *testing.T) {
	net := smallNet(1)
	c1 := tensor.Full(1, 3, 4) // 3 steps of all-ones
	c2 := tensor.Full(1, 2, 4)
	c3 := tensor.Full(1, 4, 4)
	stim := Assemble(net, []*tensor.Tensor{c1, c2, c3})
	// Eq. 8: 2·3 + 2·2 + 4 = 14 steps.
	if stim.Dim(0) != 14 {
		t.Fatalf("assembled steps = %d, want 14", stim.Dim(0))
	}
	// Layout: I¹(0-2) 0¹(3-5) I²(6-7) 0²(8-9) I³(10-13).
	stepSum := func(s int) float64 {
		sum := 0.0
		for i := 0; i < 4; i++ {
			sum += stim.At(s, i)
		}
		return sum
	}
	for s := 0; s < 3; s++ {
		if stepSum(s) != 4 {
			t.Errorf("step %d should be chunk 1 content", s)
		}
	}
	for s := 3; s < 6; s++ {
		if stepSum(s) != 0 {
			t.Errorf("step %d should be zero separator", s)
		}
	}
	if stepSum(6) != 4 || stepSum(8) != 0 || stepSum(10) != 4 || stepSum(13) != 4 {
		t.Error("chunk layout wrong")
	}
}

func TestAssembleSingleChunkNoSeparator(t *testing.T) {
	net := smallNet(2)
	stim := Assemble(net, []*tensor.Tensor{tensor.Full(1, 5, 4)})
	if stim.Dim(0) != 5 {
		t.Errorf("single chunk duration = %d, want 5 (no trailing zeros)", stim.Dim(0))
	}
}

func TestAssembleEmpty(t *testing.T) {
	net := smallNet(3)
	stim := Assemble(net, nil)
	if stim.Dim(0) != 1 || tensor.Sum(stim) != 0 {
		t.Error("empty assembly should be a single zero step")
	}
}

func TestCalibrateTInMinReachesAllOutputs(t *testing.T) {
	net := smallNet(4)
	cfg := TestConfig()
	tmin := must(CalibrateTInMinParallel(context.Background(), net, &cfg, 5))
	if tmin < 1 {
		t.Fatalf("T_in,min = %d", tmin)
	}
	// The calibrated duration must not be absurd for a 2-layer net.
	if tmin > 64 {
		t.Errorf("T_in,min = %d, implausibly large", tmin)
	}
}

// TestGenerateContextRejectsFaultyNetwork pins the fault-free
// precondition's error to the exported function that checks it.
func TestGenerateContextRejectsFaultyNetwork(t *testing.T) {
	net := smallNet(4)
	net.Layers[0].SetNeuronMode(0, snn.NeuronDead)
	_, err := GenerateContext(context.Background(), net, TestConfig())
	if want := "core: GenerateContext requires a fault-free network"; err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("GenerateContext error %v, want prefix %q", err, want)
	}
}

func TestGenerateActivatesNeuronsAndAssembles(t *testing.T) {
	net := smallNet(6)
	cfg := TestConfig()
	cfg.Seed = 7
	res := must(GenerateContext(context.Background(), net, cfg))

	if res.Stimulus == nil || res.TotalSteps() < 1 {
		t.Fatal("no stimulus generated")
	}
	if res.ActivatedFraction < 0.9 {
		t.Errorf("activated fraction = %.2f; a small dense net should reach ≥ 0.9", res.ActivatedFraction)
	}
	if len(res.Chunks) == 0 || len(res.Trace) != len(res.Chunks) {
		t.Fatalf("chunks/trace mismatch: %d/%d", len(res.Chunks), len(res.Trace))
	}
	// Stimulus must be binary.
	for _, v := range res.Stimulus.Data() {
		if v != 0 && v != 1 {
			t.Fatal("non-binary stimulus")
		}
	}
	// Eq. 8 arithmetic: total = Σ 2·Tj + Td.
	want := 0
	for i, c := range res.Chunks {
		want += c.Dim(0)
		if i < len(res.Chunks)-1 {
			want += c.Dim(0)
		}
	}
	if res.TotalSteps() != want {
		t.Errorf("assembled duration %d, Eq. 8 gives %d", res.TotalSteps(), want)
	}
	// Activated set must be consistent with re-simulating the stimulus.
	rec := net.Run(res.Stimulus)
	act := rec.ActivatedNeurons(net.LayerOffsets(), 1)
	for g := range res.Activated {
		if !act[g] {
			t.Errorf("neuron %d reported activated but silent under the assembled stimulus", g)
		}
	}
	if res.Runtime <= 0 {
		t.Error("runtime not measured")
	}
	if res.DurationSamples(10) != float64(res.TotalSteps())/10 {
		t.Error("DurationSamples arithmetic wrong")
	}
}

func TestGenerateDeterministicWithSeed(t *testing.T) {
	net := smallNet(8)
	cfg := TestConfig()
	cfg.Seed = 9
	a := must(GenerateContext(context.Background(), net, cfg))
	b := must(GenerateContext(context.Background(), net, cfg))
	if !tensor.Equal(a.Stimulus, b.Stimulus, 0) {
		t.Error("same seed must reproduce the same stimulus")
	}
}

func TestGenerateRespectsTimeLimit(t *testing.T) {
	net := smallNet(10)
	cfg := TestConfig()
	cfg.TimeLimit = 0 // expire immediately after the first checks
	res := must(GenerateContext(context.Background(), net, cfg))
	if len(res.Chunks) > 1 {
		t.Errorf("time-limited run produced %d chunks", len(res.Chunks))
	}
}

func TestGenerateRespectsMaxIterations(t *testing.T) {
	net := smallNet(11)
	cfg := TestConfig()
	cfg.MaxIterations = 1
	res := must(GenerateContext(context.Background(), net, cfg))
	if len(res.Chunks) > 1 {
		t.Errorf("MaxIterations=1 produced %d chunks", len(res.Chunks))
	}
}

// The headline property: the optimized stimulus achieves high fault
// coverage. (The optimized-vs-random advantage that motivates the paper
// only materializes on non-trivial models where random inputs leave most
// neurons silent; the benchmark harness checks it at small scale, while
// this unit test checks absolute coverage on a toy.)
func TestGeneratedTestCoversFaults(t *testing.T) {
	net := smallNet(12)
	cfg := TestConfig()
	cfg.Seed = 13
	res := must(GenerateContext(context.Background(), net, cfg))

	faults := fault.Enumerate(net, fault.DefaultOptions())
	sim := must(fault.SimulateWith(net, faults, res.Stimulus, fault.CampaignOptions{Workers: 1}))
	fcOpt := float64(sim.NumDetected()) / float64(len(faults))

	if fcOpt < 0.6 {
		t.Errorf("optimized stimulus FC = %.2f; expected ≥ 0.6 on a dense toy net", fcOpt)
	}
	// Saturated-neuron faults are self-activating and must essentially all
	// be caught by a stimulus that makes every neuron participate.
	det, tot := 0, 0
	for i, f := range faults {
		if f.Kind == fault.NeuronSaturated {
			tot++
			if sim.Detected[i] {
				det++
			}
		}
	}
	if float64(det)/float64(tot) < 0.9 {
		t.Errorf("saturated-neuron coverage = %d/%d; expected ≥ 0.9", det, tot)
	}
}

func TestGenerateOnConvNetwork(t *testing.T) {
	// The generator must handle conv/pool architectures, not just dense.
	rng := rand.New(rand.NewSource(15))
	net := must(snn.BuildNMNIST(rng, snn.ScaleTiny))
	cfg := TestConfig()
	cfg.Steps1 = 25
	cfg.MaxIterations = 2
	cfg.TimeLimit = time.Minute
	res := must(GenerateContext(context.Background(), net, cfg))
	if res.TotalSteps() < 1 {
		t.Fatal("no stimulus for conv network")
	}
	if res.ActivatedFraction == 0 {
		t.Error("conv generation activated nothing")
	}
}
