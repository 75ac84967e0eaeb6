package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"github.com/repro/snntest/internal/baseline"
	"github.com/repro/snntest/internal/fault"
	"github.com/repro/snntest/internal/metrics"
	"github.com/repro/snntest/internal/report"
)

// ---------------------------------------------------------------------------
// Table I — benchmark SNN characteristics

// Table1Row is one column of the paper's Table I.
type Table1Row struct {
	Benchmark   string
	Accuracy    float64
	Classes     int
	Neurons     int
	Synapses    int
	InShape     []int
	SampleSteps int
	TrainSize   int
	TestSize    int
}

// Table1 computes the characteristics row of one pipeline.
func Table1(p *Pipeline) Table1Row {
	return Table1Row{
		Benchmark:   p.Benchmark,
		Accuracy:    p.Accuracy,
		Classes:     p.Net.OutputLen(),
		Neurons:     p.Net.NumNeurons(),
		Synapses:    p.Net.NumSynapses(),
		InShape:     p.Net.InShape,
		SampleSteps: p.SampleStepsUsed(),
		TrainSize:   len(p.Data.Train),
		TestSize:    len(p.Data.Test),
	}
}

// RenderTable1 prints Table I for the given rows.
func RenderTable1(w io.Writer, rows []Table1Row) error {
	headers := []string{"Metric"}
	for _, r := range rows {
		headers = append(headers, r.Benchmark)
	}
	line := func(name string, f func(Table1Row) string) []string {
		cells := []string{name}
		for _, r := range rows {
			cells = append(cells, f(r))
		}
		return cells
	}
	return report.Table(w, "Table I: Benchmark SNN characteristics", headers, [][]string{
		line("Prediction accuracy", func(r Table1Row) string { return fmt.Sprintf("%.2f%%", 100*r.Accuracy) }),
		line("# Output classes", func(r Table1Row) string { return fmt.Sprint(r.Classes) }),
		line("# Neurons", func(r Table1Row) string { return fmt.Sprint(r.Neurons) }),
		line("# Synapses", func(r Table1Row) string { return fmt.Sprint(r.Synapses) }),
		line("Input spatial dim", func(r Table1Row) string { return fmt.Sprint(r.InShape) }),
		line("Input temporal dim", func(r Table1Row) string { return fmt.Sprintf("%d ms", r.SampleSteps) }),
		line("Size training set", func(r Table1Row) string { return fmt.Sprint(r.TrainSize) }),
		line("Size testing set", func(r Table1Row) string { return fmt.Sprint(r.TestSize) }),
	})
}

// ---------------------------------------------------------------------------
// Table II — fault simulation results

// Table2Row is one column of the paper's Table II.
type Table2Row struct {
	Benchmark       string
	CriticalNeuron  int
	BenignNeuron    int
	CriticalSynapse int
	BenignSynapse   int
	UniverseSize    int // full universe (before any stride)
	SimTime         time.Duration
}

// Table2 runs the criticality-labelling campaign of one pipeline.
func Table2(ctx context.Context, p *Pipeline) (Table2Row, error) {
	critical, err := p.Critical(ctx)
	if err != nil {
		return Table2Row{}, err
	}
	// The class sizes are the per-class totals of a coverage tally with
	// nothing detected.
	faults := p.Faults()
	cov, err := fault.Compute(faults, make([]bool, len(faults)), critical)
	if err != nil {
		return Table2Row{}, err
	}
	return Table2Row{
		Benchmark:       p.Benchmark,
		CriticalNeuron:  cov.CriticalNeuron.Total,
		BenignNeuron:    cov.BenignNeuron.Total,
		CriticalSynapse: cov.CriticalSynapse.Total,
		BenignSynapse:   cov.BenignSynapse.Total,
		UniverseSize:    fault.UniverseSize(p.Net, fault.DefaultOptions()),
		SimTime:         p.ClassifyTime,
	}, nil
}

// RenderTable2 prints Table II for the given rows.
func RenderTable2(w io.Writer, rows []Table2Row) error {
	headers := []string{"Metric"}
	for _, r := range rows {
		headers = append(headers, r.Benchmark)
	}
	line := func(name string, f func(Table2Row) string) []string {
		cells := []string{name}
		for _, r := range rows {
			cells = append(cells, f(r))
		}
		return cells
	}
	return report.Table(w, "Table II: Fault simulation results", headers, [][]string{
		line("# Critical neuron faults", func(r Table2Row) string { return fmt.Sprint(r.CriticalNeuron) }),
		line("# Benign neuron faults", func(r Table2Row) string { return fmt.Sprint(r.BenignNeuron) }),
		line("# Critical synapse faults", func(r Table2Row) string { return fmt.Sprint(r.CriticalSynapse) }),
		line("# Benign synapse faults", func(r Table2Row) string { return fmt.Sprint(r.BenignSynapse) }),
		line("Full universe size", func(r Table2Row) string { return fmt.Sprint(r.UniverseSize) }),
		line("Fault simulation time", func(r Table2Row) string { return r.SimTime.Round(time.Millisecond).String() }),
	})
}

// ---------------------------------------------------------------------------
// Table III — test generation efficiency metrics

// Table3Row is one column of the paper's Table III.
type Table3Row struct {
	Benchmark       string
	GenRuntime      time.Duration
	DurationSamples float64
	DurationSec     float64
	ActivatedPct    float64
	FCCritNeuron    float64
	FCCritSynapse   float64
	FCBenNeuron     float64
	FCBenSynapse    float64
	MaxDropNeuron   float64
	MaxDropSynapse  float64
}

// Table3 generates the optimized test for one pipeline, verifies it with
// a single final fault-simulation campaign, and assembles the efficiency
// metrics.
func Table3(ctx context.Context, p *Pipeline) (Table3Row, error) {
	gen, err := p.Generate(ctx)
	if err != nil {
		return Table3Row{}, err
	}
	faults := p.Faults()
	critical, err := p.Critical(ctx)
	if err != nil {
		return Table3Row{}, err
	}
	sim, err := p.simulate(ctx, gen.Stimulus, p.progress("verify"))
	if err != nil {
		return Table3Row{}, err
	}
	cov, err := fault.Compute(faults, sim.Detected, critical)
	if err != nil {
		return Table3Row{}, err
	}
	testIn, testLab := p.Data.Inputs("test")
	nDrop, sDrop := fault.MaxEscapeDrop(p.Net, faults, sim.Detected, critical, testIn, testLab)
	return Table3Row{
		Benchmark:       p.Benchmark,
		GenRuntime:      gen.Runtime,
		DurationSamples: gen.DurationSamples(p.SampleStepsUsed()),
		DurationSec:     metrics.DurationSeconds(p.Net, gen.TotalSteps()),
		ActivatedPct:    100 * gen.ActivatedFraction,
		FCCritNeuron:    100 * cov.CriticalNeuron.FC(),
		FCCritSynapse:   100 * cov.CriticalSynapse.FC(),
		FCBenNeuron:     100 * cov.BenignNeuron.FC(),
		FCBenSynapse:    100 * cov.BenignSynapse.FC(),
		MaxDropNeuron:   100 * nDrop,
		MaxDropSynapse:  100 * sDrop,
	}, nil
}

// RenderTable3 prints Table III for the given rows.
func RenderTable3(w io.Writer, rows []Table3Row) error {
	headers := []string{"Metric"}
	for _, r := range rows {
		headers = append(headers, r.Benchmark)
	}
	line := func(name string, f func(Table3Row) string) []string {
		cells := []string{name}
		for _, r := range rows {
			cells = append(cells, f(r))
		}
		return cells
	}
	return report.Table(w, "Table III: Test generation efficiency metrics", headers, [][]string{
		line("Test generation runtime", func(r Table3Row) string { return r.GenRuntime.Round(time.Millisecond).String() }),
		line("Test duration (samples)", func(r Table3Row) string { return fmt.Sprintf("%.2f", r.DurationSamples) }),
		line("Test duration (time)", func(r Table3Row) string { return fmt.Sprintf("%.3fs", r.DurationSec) }),
		line("Activated neurons", func(r Table3Row) string { return fmt.Sprintf("%.2f%%", r.ActivatedPct) }),
		line("FC critical neuron faults", func(r Table3Row) string { return fmt.Sprintf("%.2f%%", r.FCCritNeuron) }),
		line("FC critical synapse faults", func(r Table3Row) string { return fmt.Sprintf("%.2f%%", r.FCCritSynapse) }),
		line("FC benign neuron faults", func(r Table3Row) string { return fmt.Sprintf("%.2f%%", r.FCBenNeuron) }),
		line("FC benign synapse faults", func(r Table3Row) string { return fmt.Sprintf("%.2f%%", r.FCBenSynapse) }),
		line("Max accuracy drop neuron(synapse)", func(r Table3Row) string {
			return fmt.Sprintf("%.1f%%(%.1f%%)", r.MaxDropNeuron, r.MaxDropSynapse)
		}),
	})
}

// ---------------------------------------------------------------------------
// Table IV — comparison with previous works (NMNIST)

// Table4Row is one column of the paper's Table IV: one test-generation
// method on the NMNIST benchmark.
type Table4Row struct {
	Method          string
	StimulusType    string
	GenTime         time.Duration
	FaultSims       int
	Configs         int
	DurationSamples float64
	DurationSec     float64
	CriticalFC      float64
}

// Table4 runs every method on the pipeline's model and fault universe.
// The pipeline should be the NMNIST one, the only benchmark shared by all
// prior works.
func Table4(ctx context.Context, p *Pipeline) ([]Table4Row, error) {
	faults := p.Faults()
	critical, err := p.Critical(ctx)
	if err != nil {
		return nil, err
	}
	sampleSteps := p.SampleStepsUsed()
	trainIn, trainLab := p.Data.Inputs("train")

	evalRow := func(method, stype string, genTime time.Duration, sims, configs, steps int, detected []bool) (Table4Row, error) {
		cov, err := fault.Compute(faults, detected, critical)
		if err != nil {
			return Table4Row{}, err
		}
		return Table4Row{
			Method:          method,
			StimulusType:    stype,
			GenTime:         genTime,
			FaultSims:       sims,
			Configs:         configs,
			DurationSamples: float64(steps) / float64(sampleSteps),
			DurationSec:     metrics.DurationSeconds(p.Net, steps),
			CriticalFC:      100 * cov.CriticalFC(),
		}, nil
	}

	var rows []Table4Row
	addRow := func(method, stype string, genTime time.Duration, sims, configs, steps int, detected []bool) error {
		row, err := evalRow(method, stype, genTime, sims, configs, steps, detected)
		if err != nil {
			return err
		}
		rows = append(rows, row)
		return nil
	}
	cfg := baseline.DefaultConfig()
	cfg.Workers = p.Opts.Workers

	// [17]/[19]-style adversarial greedy.
	adv, err := baseline.Adversarial17(p.Net, faults, trainIn, trainLab, 0.05, cfg)
	if err != nil {
		return nil, err
	}
	advSim, err := p.simulate(ctx, adv.Stimulus, nil)
	if err != nil {
		return nil, err
	}
	if err := addRow("[17] adversarial", "Adversarial", adv.Runtime,
		adv.FaultSims, 1, adv.TotalSteps(), advSim.Detected); err != nil {
		return nil, err
	}

	// [18]-style dataset greedy.
	d18, err := baseline.Dataset18(p.Net, faults, trainIn, cfg)
	if err != nil {
		return nil, err
	}
	d18Sim, err := p.simulate(ctx, d18.Stimulus, nil)
	if err != nil {
		return nil, err
	}
	if err := addRow("[18] dataset", "Dataset", d18.Runtime,
		d18.FaultSims, 1, d18.TotalSteps(), d18Sim.Detected); err != nil {
		return nil, err
	}

	// [20]-style random greedy.
	rng := rand.New(rand.NewSource(p.Opts.Seed + 7))
	r20, err := baseline.Random20(p.Net, faults, len(trainIn), sampleSteps, 0.3, rng, cfg)
	if err != nil {
		return nil, err
	}
	r20Sim, err := p.simulate(ctx, r20.Stimulus, nil)
	if err != nil {
		return nil, err
	}
	if err := addRow("[20] random", "Random", r20.Runtime,
		r20.FaultSims, 1, r20.TotalSteps(), r20Sim.Detected); err != nil {
		return nil, err
	}

	// This work: optimized stimulus, no fault simulation during
	// generation — one verification campaign at the end.
	gen, err := p.Generate(ctx)
	if err != nil {
		return nil, err
	}
	genSim, err := p.simulate(ctx, gen.Stimulus, nil)
	if err != nil {
		return nil, err
	}
	if err := addRow("This work", "Optimized", gen.Runtime,
		0, 1, gen.TotalSteps(), genSim.Detected); err != nil {
		return nil, err
	}

	return rows, nil
}

// RenderTable4 prints Table IV for the given rows.
func RenderTable4(w io.Writer, rows []Table4Row) error {
	headers := []string{"Metric"}
	for _, r := range rows {
		headers = append(headers, r.Method)
	}
	line := func(name string, f func(Table4Row) string) []string {
		cells := []string{name}
		for _, r := range rows {
			cells = append(cells, f(r))
		}
		return cells
	}
	return report.Table(w, "Table IV: Comparison with previous works (NMNIST)", headers, [][]string{
		line("Test stimulus type", func(r Table4Row) string { return r.StimulusType }),
		line("Test generation time", func(r Table4Row) string { return r.GenTime.Round(time.Millisecond).String() }),
		line("Fault sims during generation", func(r Table4Row) string { return fmt.Sprint(r.FaultSims) }),
		line("# Test configurations", func(r Table4Row) string { return fmt.Sprint(r.Configs) }),
		line("Test duration (samples)", func(r Table4Row) string { return fmt.Sprintf("%.2f", r.DurationSamples) }),
		line("Test duration (time)", func(r Table4Row) string { return fmt.Sprintf("%.3fs", r.DurationSec) }),
		line("Critical fault coverage", func(r Table4Row) string { return fmt.Sprintf("%.2f%%", r.CriticalFC) }),
	})
}
