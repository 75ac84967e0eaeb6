package experiments

import (
	"context"
	"fmt"
	"io"

	"github.com/repro/snntest/internal/core"
	"github.com/repro/snntest/internal/metrics"
	"github.com/repro/snntest/internal/report"
)

// Fig7 renders snapshots of the optimized test stimulus at evenly spaced
// time stamps (the paper's Fig. 7: blue/red polarity dots become '+'/'-').
func Fig7(ctx context.Context, w io.Writer, p *Pipeline, snapshots int) error {
	gen, err := p.Generate(ctx)
	if err != nil {
		return err
	}
	stim := gen.Stimulus
	steps := stim.Dim(0)
	if snapshots < 1 {
		snapshots = 4
	}
	if _, err := fmt.Fprintf(w, "Fig. 7: Snapshots of the optimized test stimulus (%s, %d steps)\n\n", p.Benchmark, steps); err != nil {
		return err
	}
	for s := 0; s < snapshots; s++ {
		t := s * (steps - 1) / max(1, snapshots-1)
		f := stim.Step(t).Reshape(p.Net.InShape...)
		if err := report.FrameSnapshot(w, f, fmt.Sprintf("t = %d ms", int(float64(t)*p.Net.StepMS))); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// Fig8Data is the quantitative content of the paper's Fig. 8: neuron
// activation under the optimized test versus a random dataset sample.
type Fig8Data struct {
	Optimized metrics.ActivationMap
	Sample    metrics.ActivationMap
}

// Fig8 computes both activation maps.
func Fig8(ctx context.Context, p *Pipeline) (Fig8Data, error) {
	gen, err := p.Generate(ctx)
	if err != nil {
		return Fig8Data{}, err
	}
	opt, err := metrics.Activation(p.Net, gen.Stimulus)
	if err != nil {
		return Fig8Data{}, err
	}
	// A fixed test-split item keeps the figure deterministic.
	sample, err := metrics.Activation(p.Net, p.Data.Test[3%len(p.Data.Test)].Input)
	if err != nil {
		return Fig8Data{}, err
	}
	return Fig8Data{Optimized: opt, Sample: sample}, nil
}

// RenderFig8 prints the per-layer activation grids side by side.
func RenderFig8(w io.Writer, p *Pipeline, d Fig8Data) error {
	fmt.Fprintf(w, "Fig. 8: Neuron activity, optimized test vs. random dataset sample (%s)\n\n", p.Benchmark)
	fmt.Fprintf(w, "(a) Optimized test input: %.2f%% of neurons activated\n", 100*d.Optimized.Overall)
	for li, name := range d.Optimized.LayerNames {
		if err := report.ActivationGrid(w, name, d.Optimized.Activated[li], 48); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "\n(b) Random dataset sample: %.2f%% of neurons activated\n", 100*d.Sample.Overall)
	for li, name := range d.Sample.LayerNames {
		if err := report.ActivationGrid(w, name, d.Sample.Activated[li], 48); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Fig9Data is the content of the paper's Fig. 9: per-class distributions
// of the output spike-count difference over detected faults.
type Fig9Data struct {
	Diffs metrics.ClassDiffs
	// DetectedFaults is the number of faults contributing to each class
	// distribution.
	DetectedFaults int
}

// Fig9 simulates the fault universe against the optimized stimulus and
// collects the per-class output corruption distributions.
func Fig9(ctx context.Context, p *Pipeline) (Fig9Data, error) {
	gen, err := p.Generate(ctx)
	if err != nil {
		return Fig9Data{}, err
	}
	cd, err := metrics.OutputSpikeDiffs(p.Net, p.Faults(), gen.Stimulus)
	if err != nil {
		return Fig9Data{}, err
	}
	n := 0
	if len(cd.Diffs) > 0 {
		n = len(cd.Diffs[0])
	}
	return Fig9Data{Diffs: cd, DetectedFaults: n}, nil
}

// RenderFig9 prints one histogram per output class.
func RenderFig9(w io.Writer, p *Pipeline, d Fig9Data, bins int) error {
	fmt.Fprintf(w, "Fig. 9: Per-class output spike-count difference over %d detected faults (%s)\n\n",
		d.DetectedFaults, p.Benchmark)
	maxDiff := 0.0
	for _, diffs := range d.Diffs.Diffs {
		for _, v := range diffs {
			if v > maxDiff {
				maxDiff = v
			}
		}
	}
	if maxDiff == 0 { //lint:ignore floateq max of spike-count differences; exact zero means no fault detected anywhere
		_, err := fmt.Fprintln(w, "(no detected faults)")
		return err
	}
	for c, diffs := range d.Diffs.Diffs {
		counts, width := metrics.Histogram(diffs, bins, maxDiff)
		if err := report.HistogramChart(w, fmt.Sprintf("class %d (p50 %.1f, p95 %.1f)",
			c, metrics.Percentile(diffs, 0.5), metrics.Percentile(diffs, 0.95)), counts, width); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §5)

// AblationResult compares a full algorithm run against a variant with one
// design element removed.
type AblationResult struct {
	Name       string
	FullFC     float64 // overall FC of the full algorithm, percent
	VariantFC  float64 // overall FC of the ablated variant, percent
	FullSteps  int
	VariantVar int // variant stimulus duration in steps
}

// Ablate runs the generator with a mutated config and reports coverage
// against the pipeline's fault universe.
func Ablate(ctx context.Context, p *Pipeline, name string, mutate func(*core.Config)) (AblationResult, error) {
	faults := p.Faults()

	full, err := p.Generate(ctx)
	if err != nil {
		return AblationResult{}, err
	}
	fullSim, err := p.simulate(ctx, full.Stimulus, nil)
	if err != nil {
		return AblationResult{}, err
	}

	cfg := p.Opts.GenConfig
	mutate(&cfg)
	variant, err := core.GenerateContext(ctx, p.Net, cfg)
	if err != nil {
		return AblationResult{}, err
	}
	varSim, err := p.simulate(ctx, variant.Stimulus, nil)
	if err != nil {
		return AblationResult{}, err
	}

	return AblationResult{
		Name:       name,
		FullFC:     100 * float64(fullSim.NumDetected()) / float64(len(faults)),
		VariantFC:  100 * float64(varSim.NumDetected()) / float64(len(faults)),
		FullSteps:  full.TotalSteps(),
		VariantVar: variant.TotalSteps(),
	}, nil
}

// RenderAblations prints the ablation comparison table.
func RenderAblations(w io.Writer, rows []AblationResult) error {
	table := make([][]string, len(rows))
	for i, r := range rows {
		table[i] = []string{
			r.Name,
			fmt.Sprintf("%.2f%%", r.FullFC),
			fmt.Sprintf("%.2f%%", r.VariantFC),
			fmt.Sprintf("%+.2f%%", r.VariantFC-r.FullFC),
		}
	}
	return report.Table(w, "Ablation study (overall FC)", []string{"Variant", "Full", "Ablated", "Δ"}, table)
}
