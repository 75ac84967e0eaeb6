package metrics

import (
	"math"
	"math/rand"
	"testing"

	"github.com/repro/snntest/internal/core"
	"github.com/repro/snntest/internal/fault"
	"github.com/repro/snntest/internal/snn"
	"github.com/repro/snntest/internal/tensor"
)

func toyNet(seed int64) *snn.Network {
	rng := rand.New(rand.NewSource(seed))
	l1 := must(snn.NewLayer("h", must(snn.NewDenseProj(tensor.RandNormal(rng, 0.25, 0.5, 5, 4))), snn.DefaultLIF()))
	l2 := must(snn.NewLayer("out", must(snn.NewDenseProj(tensor.RandNormal(rng, 0.25, 0.5, 3, 5))), snn.DefaultLIF()))
	return must(snn.NewNetwork("toy", []int{4}, 1.0, l1, l2))
}

func TestActivationMap(t *testing.T) {
	net := toyNet(1)
	stim := tensor.RandBernoulli(rand.New(rand.NewSource(2)), 0.6, 15, 4)
	m := must(Activation(net, stim))
	if len(m.Activated) != 2 || len(m.Fractions) != 2 {
		t.Fatal("one entry per layer expected")
	}
	rec := net.Run(stim)
	for li := range m.Activated {
		counts := rec.Counts(li)
		for i, a := range m.Activated[li] {
			if a != (counts.At(i) >= 1) {
				t.Errorf("layer %d neuron %d: flag %v, count %g", li, i, a, counts.At(i))
			}
		}
	}
	// Zero stimulus activates nothing.
	z := must(Activation(net, net.ZeroInput(5)))
	if z.Overall != 0 {
		t.Errorf("zero stimulus overall activation = %g", z.Overall)
	}
}

func TestOutputSpikeDiffsDetectedOnly(t *testing.T) {
	net := toyNet(3)
	stim := tensor.RandBernoulli(rand.New(rand.NewSource(4)), 0.6, 15, 4)
	faults := []fault.Fault{
		{Kind: fault.NeuronSaturated, Layer: 1, Neuron: 0}, // detectable: floods output 0
	}
	cd := must(OutputSpikeDiffs(net, faults, stim))
	if len(cd.Diffs) != 3 {
		t.Fatalf("classes = %d, want 3", len(cd.Diffs))
	}
	if len(cd.Diffs[0]) != 1 {
		t.Fatalf("expected exactly one detected fault, got %d", len(cd.Diffs[0]))
	}
	if cd.Diffs[0][0] <= 0 {
		t.Error("saturated output neuron must change its class count")
	}
	// All class lists stay parallel (one entry per detected fault).
	if len(cd.Diffs[1]) != 1 || len(cd.Diffs[2]) != 1 {
		t.Error("per-class lists must be parallel")
	}
}

func TestOutputSpikeDiffsSkipsUndetected(t *testing.T) {
	net := toyNet(5)
	// Zero stimulus: a hidden dead-neuron fault is invisible.
	faults := []fault.Fault{{Kind: fault.NeuronDead, Layer: 0, Neuron: 0}}
	cd := must(OutputSpikeDiffs(net, faults, net.ZeroInput(10)))
	if len(cd.Diffs[0]) != 0 {
		t.Error("undetected fault must not contribute to the distribution")
	}
}

func TestHistogram(t *testing.T) {
	counts, width := Histogram([]float64{0.5, 1.5, 2.5, 9.5, 100}, 5, 10)
	if width != 2 {
		t.Errorf("bin width = %g, want 2", width)
	}
	want := []int{2, 1, 0, 0, 2} // 100 clamps into the last bin
	for i, c := range want {
		if counts[i] != c {
			t.Errorf("bin %d = %d, want %d", i, counts[i], c)
		}
	}
	if c, _ := Histogram(nil, 0, 10); len(c) != 0 {
		t.Error("zero bins should return empty")
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 3, 2, 4}
	if p := Percentile(vals, 0.5); p != 3 {
		t.Errorf("median = %g, want 3", p)
	}
	if p := Percentile(vals, 1.0); p != 5 {
		t.Errorf("max = %g, want 5", p)
	}
	if p := Percentile(vals, 0.0); p != 1 {
		t.Errorf("p0 = %g, want 1 (nearest rank clamps)", p)
	}
	if Percentile(nil, 0.5) != 0 {
		t.Error("empty percentile should be 0")
	}
	// Input must not be mutated.
	if vals[0] != 5 {
		t.Error("Percentile sorted the caller's slice")
	}
}

func TestDurationSeconds(t *testing.T) {
	net := toyNet(6)
	if s := DurationSeconds(net, 2500); math.Abs(s-2.5) > 1e-12 {
		t.Errorf("2500 steps at 1 ms = %g s, want 2.5", s)
	}
}

func TestSummarizeGeneration(t *testing.T) {
	if s := SummarizeGeneration(nil); s.Iterations != 0 || s.MeanNewActivated != 0 {
		t.Errorf("empty trace summary = %+v", s)
	}
	trace := []core.IterationStats{
		{Iteration: 0, Growths: 1, NewActivated: 10, Restart: 2, RestartsRun: 4},
		{Iteration: 1, Growths: 0, NewActivated: 4, Restart: 0, RestartsRun: 4},
		{Iteration: 2, Growths: 2, NewActivated: 1, Restart: 2, RestartsRun: 4},
	}
	s := SummarizeGeneration(trace)
	if s.Iterations != 3 || s.TotalGrowths != 3 || s.RestartsRun != 12 {
		t.Errorf("summary = %+v", s)
	}
	if s.MeanNewActivated != 5 {
		t.Errorf("mean new activated = %g, want 5", s.MeanNewActivated)
	}
	if s.WinnersByRestart[2] != 2 || s.WinnersByRestart[0] != 1 {
		t.Errorf("winners = %v", s.WinnersByRestart)
	}
}

// TestPercentileEdgeCases pins the contract at the boundaries: empty
// input, out-of-range and NaN p, and single-element slices.
func TestPercentileEdgeCases(t *testing.T) {
	vals := []float64{5, 1, 3}
	if p := Percentile(vals, -0.5); p != 1 {
		t.Errorf("p<0 = %g, want min 1", p)
	}
	if p := Percentile(vals, 1.5); p != 5 {
		t.Errorf("p>1 = %g, want max 5", p)
	}
	if p := Percentile(vals, math.Inf(-1)); p != 1 {
		t.Errorf("p=-Inf = %g, want min 1", p)
	}
	if p := Percentile(vals, math.Inf(1)); p != 5 {
		t.Errorf("p=+Inf = %g, want max 5", p)
	}
	if p := Percentile(vals, math.NaN()); !math.IsNaN(p) {
		t.Errorf("p=NaN = %g, want NaN", p)
	}
	for _, p := range []float64{0, 0.001, 0.5, 0.999, 1} {
		if got := Percentile([]float64{7}, p); got != 7 {
			t.Errorf("single-element Percentile(p=%g) = %g, want 7", p, got)
		}
	}
	if Percentile(nil, 0) != 0 || Percentile(nil, 1) != 0 {
		t.Error("empty input must return 0 for every p")
	}
}

// TestHistogramEdgeCases covers degenerate shapes: zero/negative max and
// bins, all-equal values, negatives, and non-finite inputs.
func TestHistogramEdgeCases(t *testing.T) {
	// Zero max: all-zero counts, zero width — not a panic or NaN bins.
	counts, width := Histogram([]float64{1, 2, 3}, 4, 0)
	if width != 0 || len(counts) != 4 {
		t.Fatalf("zero max: counts=%v width=%g", counts, width)
	}
	for i, c := range counts {
		if c != 0 {
			t.Errorf("zero max bin %d = %d, want 0", i, c)
		}
	}
	// Negative bins must not panic.
	if c, w := Histogram([]float64{1}, -3, 10); len(c) != 0 || w != 0 {
		t.Errorf("negative bins: counts=%v width=%g", c, w)
	}
	// NaN / Inf max behave like the degenerate max.
	if c, w := Histogram([]float64{1}, 3, math.NaN()); w != 0 || c[0] != 0 {
		t.Errorf("NaN max: counts=%v width=%g", c, w)
	}
	if c, w := Histogram([]float64{1}, 3, math.Inf(1)); w != 0 || c[0] != 0 {
		t.Errorf("Inf max: counts=%v width=%g", c, w)
	}
	// All-equal values at the max boundary land in the last bin.
	counts, width = Histogram([]float64{5, 5, 5}, 5, 5)
	if width != 1 || counts[4] != 3 {
		t.Errorf("all-equal at max: counts=%v width=%g", counts, width)
	}
	// Negative and non-finite values: negatives into bin 0, +Inf into the
	// last bin, NaN dropped.
	counts, _ = Histogram([]float64{-2, math.Inf(1), math.NaN(), 0.5}, 2, 2)
	if counts[0] != 2 || counts[1] != 1 {
		t.Errorf("mixed pathological values: counts=%v", counts)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 3 {
		t.Errorf("NaN value not dropped: total=%d", total)
	}
}
