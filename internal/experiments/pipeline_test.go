package experiments

import (
	"bytes"
	"context"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/repro/snntest/internal/core"
	"github.com/repro/snntest/internal/fault"
	"github.com/repro/snntest/internal/snn"
)

// tinyOpts returns a minimal configuration for fast end-to-end tests.
func tinyOpts() Options {
	o := ScaledOptions(snn.ScaleTiny, 1)
	o.TrainPerClass = 2
	o.TestPerClass = 1
	o.TrainEpochs = 2
	o.SampleSteps = 15
	o.GenConfig.Steps1 = 40
	o.GenConfig.MaxIterations = 6
	o.GenConfig.MaxGrowth = 1
	o.FaultStride = 9
	return o
}

// shdPipeline builds the cheapest benchmark pipeline once per test run.
func shdPipeline(t *testing.T) *Pipeline {
	t.Helper()
	p, err := NewPipeline("shd", tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewPipelineUnknownBenchmark(t *testing.T) {
	if _, err := NewPipeline("nope", tinyOpts()); err == nil {
		t.Error("unknown benchmark must error")
	}
}

func TestPipelineEndToEndSHD(t *testing.T) {
	ctx := context.Background()
	p := shdPipeline(t)
	if p.Accuracy < 0.10 {
		t.Errorf("trained accuracy %.2f below sanity floor (chance = 0.05)", p.Accuracy)
	}
	if len(p.History.Loss) != 2 {
		t.Errorf("history epochs = %d", len(p.History.Loss))
	}

	// Table I.
	t1 := Table1(p)
	if t1.Neurons != p.Net.NumNeurons() || t1.Classes != 20 {
		t.Errorf("Table1 row wrong: %+v", t1)
	}

	// Table II: partition must cover the strided universe.
	t2 := must(Table2(ctx, p))
	got := t2.CriticalNeuron + t2.BenignNeuron + t2.CriticalSynapse + t2.BenignSynapse
	if got != len(p.Faults()) {
		t.Errorf("Table2 partition %d faults, universe %d", got, len(p.Faults()))
	}
	if t2.UniverseSize != 2*p.Net.NumNeurons()+3*p.Net.NumSynapses() {
		t.Errorf("full universe size %d", t2.UniverseSize)
	}

	// Table III: percentages must be sane and activation should be high.
	t3 := must(Table3(ctx, p))
	for name, v := range map[string]float64{
		"activated": t3.ActivatedPct, "fc-cn": t3.FCCritNeuron, "fc-cs": t3.FCCritSynapse,
		"fc-bn": t3.FCBenNeuron, "fc-bs": t3.FCBenSynapse,
	} {
		if v < 0 || v > 100 {
			t.Errorf("Table3 %s = %.2f out of range", name, v)
		}
	}
	if t3.ActivatedPct < 20 {
		t.Errorf("activated neurons %.1f%%; expected the optimizer to reach a fair share of a tiny net", t3.ActivatedPct)
	}
	if t3.FCCritNeuron < 50 {
		t.Errorf("critical neuron FC %.1f%%; the optimized test should catch most critical neuron faults", t3.FCCritNeuron)
	}
	if t3.DurationSamples <= 0 {
		t.Error("test duration must be positive")
	}

	// Section III extension faults: the optimized test must also detect
	// faults of a kind the base model lacks (parametric timing variation,
	// weight bit-flips).
	gen := must(p.Generate(ctx))
	extended := fault.SampleUniverse(p.Net, fault.ExtendedOptions(), p.Opts.FaultStride)
	sim := must(fault.SimulateWith(p.Net, extended, gen.Stimulus, fault.CampaignOptions{}))
	extDetected := 0
	for i, f := range extended {
		switch f.Kind {
		case fault.NeuronThresholdVar, fault.NeuronLeakVar, fault.NeuronRefractoryVar, fault.SynapseBitFlip:
			if sim.Detected[i] {
				extDetected++
			}
		}
	}
	if extDetected == 0 {
		t.Errorf("optimized test detects none of the extension-only faults in a %d-fault extended universe", len(extended))
	}

	// Figures.
	d8 := must(Fig8(ctx, p))
	if d8.Optimized.Overall < d8.Sample.Overall-0.05 {
		t.Errorf("optimized activation %.2f clearly below sample activation %.2f (paper's Fig. 8 shape)",
			d8.Optimized.Overall, d8.Sample.Overall)
	}
	d9 := must(Fig9(ctx, p))
	if len(d9.Diffs.Diffs) != 20 {
		t.Errorf("Fig9 classes = %d", len(d9.Diffs.Diffs))
	}
	if d9.DetectedFaults == 0 {
		t.Error("Fig9 found no detected faults")
	}

	// Renderers must produce non-trivial text.
	var b strings.Builder
	RenderTable1(&b, []Table1Row{t1})
	RenderTable2(&b, []Table2Row{t2})
	RenderTable3(&b, []Table3Row{t3})
	RenderFig8(&b, p, d8)
	RenderFig9(&b, p, d9, 5)
	Fig7(ctx, &b, p, 3)
	out := b.String()
	for _, want := range []string{"Table I", "Table II", "Table III", "Fig. 7", "Fig. 8", "Fig. 9", "shd"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered report missing %q", want)
		}
	}
}

func TestTable4ComparisonShape(t *testing.T) {
	// Run Table IV on the cheapest benchmark (the paper uses NMNIST; the
	// method set is identical and SHD is far cheaper at tiny scale).
	p := shdPipeline(t)
	rows := must(Table4(context.Background(), p))
	if len(rows) != 4 {
		t.Fatalf("Table4 rows = %d, want 4 methods", len(rows))
	}
	byName := map[string]Table4Row{}
	for _, r := range rows {
		byName[r.Method] = r
	}
	ours := byName["This work"]
	if ours.FaultSims != 0 {
		t.Errorf("the proposed method must not fault-simulate during generation (%d sims)", ours.FaultSims)
	}
	for _, m := range []string{"[17] adversarial", "[18] dataset", "[20] random"} {
		r := byName[m]
		if r.FaultSims == 0 {
			t.Errorf("%s: greedy baselines pay fault simulations during generation", m)
		}
	}
	var b strings.Builder
	RenderTable4(&b, rows)
	if !strings.Contains(b.String(), "This work") {
		t.Error("Table IV render missing method column")
	}
}

func TestAblationRuns(t *testing.T) {
	p := shdPipeline(t)
	r := must(Ablate(context.Background(), p, "no-stage2", func(c *core.Config) { c.DisableStage2 = true }))
	if r.FullFC < 0 || r.FullFC > 100 || r.VariantFC < 0 || r.VariantFC > 100 {
		t.Errorf("ablation FCs out of range: %+v", r)
	}
	var b strings.Builder
	RenderAblations(&b, []AblationResult{r})
	if !strings.Contains(b.String(), "no-stage2") {
		t.Error("ablation table missing row")
	}
}

func TestScaledOptionsPresets(t *testing.T) {
	tiny := ScaledOptions(snn.ScaleTiny, 1)
	small := ScaledOptions(snn.ScaleSmall, 1)
	full := ScaledOptions(snn.ScaleFull, 1)
	if tiny.FaultStride != 1 {
		t.Error("tiny scale should be exhaustive")
	}
	if small.FaultStride <= 1 || full.FaultStride <= small.FaultStride {
		t.Error("stride must grow with scale")
	}
	if full.GenConfig.Steps1 != 2000 {
		t.Errorf("full scale must use the paper's 2000 steps, got %d", full.GenConfig.Steps1)
	}
}

// TestPipelineWeightsFile pins Options.Weights: a pipeline that loads
// another pipeline's saved weights instead of training must hold the
// same weights, measure the same accuracy and label the same faults.
func TestPipelineWeightsFile(t *testing.T) {
	ctx := context.Background()
	trained := shdPipeline(t)
	path := filepath.Join(t.TempDir(), "shd.gob")
	if err := trained.Net.SaveWeightsFile(path); err != nil {
		t.Fatal(err)
	}
	opts := tinyOpts()
	opts.Weights = path
	loaded := must(NewPipeline("shd", opts))

	var want, got bytes.Buffer
	if err := trained.Net.SaveWeights(&want); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Net.SaveWeights(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Error("loaded pipeline's weights differ from the saved ones")
	}
	if loaded.Accuracy != trained.Accuracy {
		t.Errorf("accuracy on loaded weights %.4f, trained %.4f", loaded.Accuracy, trained.Accuracy)
	}
	if loaded.TrainTime != 0 || len(loaded.History.Loss) != 0 {
		t.Errorf("loaded pipeline trained anyway: %v, %d epochs", loaded.TrainTime, len(loaded.History.Loss))
	}
	a, b := must(Table2(ctx, trained)), must(Table2(ctx, loaded))
	a.SimTime, b.SimTime = 0, 0
	if a != b {
		t.Errorf("Table II on loaded weights %+v, trained %+v", b, a)
	}

	opts.Weights = filepath.Join(t.TempDir(), "missing.gob")
	if _, err := NewPipeline("shd", opts); err == nil {
		t.Error("a missing weights file must error")
	}
}

// TestPipelineGenerateCancelled pins graceful cancellation through the
// pipeline: a pre-cancelled context yields a well-formed partial result
// (no chunks, one all-zero input frame), not an error, and Table III
// still verifies that partial stimulus.
func TestPipelineGenerateCancelled(t *testing.T) {
	p := shdPipeline(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	gen, err := p.Generate(ctx)
	if err != nil {
		t.Fatalf("cancelled Generate returned an error: %v", err)
	}
	if len(gen.Chunks) != 0 {
		t.Errorf("cancelled Generate produced %d chunks", len(gen.Chunks))
	}
	if want := append([]int{1}, p.Net.InShape...); !slices.Equal(gen.Stimulus.Shape(), want) {
		t.Fatalf("partial stimulus shape %v, want %v", gen.Stimulus.Shape(), want)
	}
	if slices.ContainsFunc(gen.Stimulus.Data(), func(v float64) bool { return v != 0 }) {
		t.Error("partial stimulus of a run with no chunks must be all zero")
	}
	if again := must(p.Generate(context.Background())); again != gen {
		t.Error("Generate must cache its result, partial ones included")
	}
	if row := must(Table3(ctx, p)); row.FCCritNeuron < 0 || row.FCCritNeuron > 100 {
		t.Errorf("Table III on the partial stimulus: critical neuron FC %.2f%%", row.FCCritNeuron)
	}
}
