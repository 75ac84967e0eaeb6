// Package metrics computes the evaluation quantities of the paper's
// result section that are not already owned by the fault package:
// neuron-activation maps (Fig. 8), per-class output spike-count-difference
// distributions of detected faults (Fig. 9), and duration conversions.
package metrics

import (
	"fmt"
	"math"

	"github.com/repro/snntest/internal/core"
	"github.com/repro/snntest/internal/fault"
	"github.com/repro/snntest/internal/snn"
	"github.com/repro/snntest/internal/tensor"
)

// ActivationMap describes which neurons a stimulus activates, per layer —
// the data behind the paper's Fig. 8 color maps.
type ActivationMap struct {
	LayerNames []string
	// Activated[ℓ][i] reports whether neuron i of layer ℓ fired ≥ 1 spike.
	Activated [][]bool
	// Fractions[ℓ] is the activated fraction of layer ℓ.
	Fractions []float64
	// Overall is the network-wide activated fraction.
	Overall float64
}

// Activation runs the network on the stimulus and maps the activated
// neurons.
func Activation(net *snn.Network, stimulus *tensor.Tensor) (ActivationMap, error) {
	if _, err := net.CheckInput(stimulus); err != nil {
		return ActivationMap{}, fmt.Errorf("metrics: Activation: %w", err)
	}
	rec := net.Run(stimulus)
	m := ActivationMap{
		LayerNames: make([]string, len(net.Layers)),
		Activated:  make([][]bool, len(net.Layers)),
		Fractions:  make([]float64, len(net.Layers)),
	}
	total, act := 0, 0
	for li, l := range net.Layers {
		m.LayerNames[li] = l.Name
		counts := rec.Counts(li)
		flags := make([]bool, l.NumNeurons())
		layerAct := 0
		for i, c := range counts.Data() {
			if c >= 1 {
				flags[i] = true
				layerAct++
			}
		}
		m.Activated[li] = flags
		m.Fractions[li] = float64(layerAct) / float64(l.NumNeurons())
		total += l.NumNeurons()
		act += layerAct
	}
	m.Overall = float64(act) / float64(total)
	return m, nil
}

// ClassDiffs holds, for each output class, the distribution of
// |Δ spike count| over the detected faults — Fig. 9's superimposed
// per-class distributions.
type ClassDiffs struct {
	// Diffs[c] lists the absolute output-count differences of class c
	// over all detected faults.
	Diffs [][]float64
}

// OutputSpikeDiffs simulates every fault against the stimulus and
// collects, for the detected ones, the per-class absolute spike-count
// difference with respect to the fault-free response.
func OutputSpikeDiffs(net *snn.Network, faults []fault.Fault, stimulus *tensor.Tensor) (ClassDiffs, error) {
	if _, err := net.CheckInput(stimulus); err != nil {
		return ClassDiffs{}, fmt.Errorf("metrics: OutputSpikeDiffs: %w", err)
	}
	if err := fault.Validate(net, faults); err != nil {
		return ClassDiffs{}, err
	}
	goldenRec := net.Run(stimulus)
	goldenCounts := goldenRec.OutputCounts()
	classes := goldenCounts.Len()
	cd := ClassDiffs{Diffs: make([][]float64, classes)}
	inj := fault.NewInjector(net)
	for _, f := range faults {
		revert := inj.Apply(f)
		// Golden-trace replay: only the layers at and above the fault
		// site need re-simulation (see fault.SimulateWith).
		rec, _ := inj.Scratch().RunFrom(f.StartLayer(), goldenRec, stimulus)
		counts := rec.OutputCounts()
		revert()
		detected := false
		diffs := make([]float64, classes)
		for c := 0; c < classes; c++ {
			diffs[c] = math.Abs(counts.At(c) - goldenCounts.At(c))
			if diffs[c] > 0 {
				detected = true
			}
		}
		if !detected {
			continue
		}
		for c := 0; c < classes; c++ {
			cd.Diffs[c] = append(cd.Diffs[c], diffs[c])
		}
	}
	return cd, nil
}

// Histogram bins values into nbins equal-width bins over [0, max]; it
// returns the bin counts and the bin width. Values beyond max land in the
// last bin, values below 0 in the first; NaN values are dropped. A
// non-positive nbins or a non-positive, NaN or infinite max yields all
// zero counts and width 0.
func Histogram(values []float64, nbins int, max float64) (counts []int, width float64) {
	if nbins < 0 {
		nbins = 0
	}
	counts = make([]int, nbins)
	if nbins == 0 || max <= 0 || math.IsNaN(max) || math.IsInf(max, 0) {
		return counts, 0
	}
	width = max / float64(nbins)
	for _, v := range values {
		// Bin edges are resolved with float comparisons before the int
		// conversion: converting NaN or an out-of-range quotient to int is
		// implementation-specific in Go, not merely wrong.
		var b int
		switch {
		case math.IsNaN(v):
			continue
		case v <= 0:
			b = 0
		case v >= max:
			b = nbins - 1
		default:
			b = int(v / width)
			if b >= nbins {
				b = nbins - 1
			}
		}
		counts[b]++
	}
	return counts, width
}

// Percentile returns the p-quantile of values using the nearest-rank
// method; p is clamped to [0, 1]. It returns 0 for empty input and NaN
// for NaN p.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	if math.IsNaN(p) {
		return math.NaN()
	}
	sorted := append([]float64(nil), values...)
	// insertion sort: the inputs here are small distributions
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	// Clamp before the arithmetic: int(math.Ceil(±Inf)) is
	// implementation-specific.
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// GenerationSummary aggregates a generation trace: how many chunks were
// produced, how much duration growth was needed, and — under the
// multi-restart engine — which restarts actually won, the provenance
// Table III's runtime rows are read against.
type GenerationSummary struct {
	Iterations int
	// TotalGrowths is the summed duration-growth count across iterations.
	TotalGrowths int
	// MeanNewActivated is the average newly activated neuron count per
	// iteration (0 for an empty trace).
	MeanNewActivated float64
	// RestartsRun is the summed number of restarts evaluated.
	RestartsRun int
	// WinnersByRestart[r] counts iterations won by restart index r.
	WinnersByRestart map[int]int
}

// SummarizeGeneration folds a per-iteration trace into a GenerationSummary.
func SummarizeGeneration(trace []core.IterationStats) GenerationSummary {
	s := GenerationSummary{WinnersByRestart: make(map[int]int)}
	totalNew := 0
	for _, it := range trace {
		s.Iterations++
		s.TotalGrowths += it.Growths
		s.RestartsRun += it.RestartsRun
		s.WinnersByRestart[it.Restart]++
		totalNew += it.NewActivated
	}
	if s.Iterations > 0 {
		s.MeanNewActivated = float64(totalNew) / float64(s.Iterations)
	}
	return s
}

// DurationSeconds converts simulation steps to seconds for a network's
// step period.
func DurationSeconds(net *snn.Network, steps int) float64 {
	return float64(steps) * net.StepMS / 1000
}
