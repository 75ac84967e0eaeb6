package report

import (
	"strings"
	"testing"

	"github.com/repro/snntest/internal/tensor"
)

func TestTableAlignment(t *testing.T) {
	var b strings.Builder
	Table(&b, "Demo", []string{"name", "value"}, [][]string{
		{"alpha", "1"},
		{"beta-longer", "22"},
	})
	out := b.String()
	if !strings.Contains(out, "Demo") || !strings.Contains(out, "====") {
		t.Error("missing title/underline")
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "beta-longer") {
		t.Error("missing rows")
	}
	lines := strings.Split(out, "\n")
	// Header and data rows begin at aligned columns: "value"/"1"/"22"
	// all start at the same offset.
	var headerIdx int
	for i, l := range lines {
		if strings.HasPrefix(l, "name") {
			headerIdx = i
		}
	}
	col := strings.Index(lines[headerIdx], "value")
	if !strings.HasPrefix(lines[headerIdx+2][col:], "1") {
		t.Errorf("column misaligned:\n%s", out)
	}
}

func TestTableNoTitle(t *testing.T) {
	var b strings.Builder
	Table(&b, "", []string{"h"}, [][]string{{"x"}})
	if strings.Contains(b.String(), "=") {
		t.Error("untitled table must not render an underline")
	}
}

// TestTableRuleFollowsHeader pins the rule line to the rendered header
// row: two tables that differ only in the width of a last-column cell
// (a wall-clock time) must differ only on that cell's line.
func TestTableRuleFollowsHeader(t *testing.T) {
	render := func(runtime string) []string {
		var b strings.Builder
		Table(&b, "Demo", []string{"metric", "value"}, [][]string{
			{"detected", "1113"},
			{"runtime", runtime},
		})
		return strings.Split(b.String(), "\n")
	}
	short, long := render("7.64s"), render("7.591234s")
	if len(short) != len(long) {
		t.Fatalf("line counts differ: %d vs %d", len(short), len(long))
	}
	for i := range short {
		if short[i] != long[i] && !strings.HasPrefix(short[i], "runtime") {
			t.Errorf("line %d differs: %q vs %q", i, short[i], long[i])
		}
	}
	if rule := short[3]; rule != strings.Repeat("-", len(short[2])) {
		t.Errorf("rule %q is not as wide as the header %q", rule, short[2])
	}
}

func TestActivationGrid(t *testing.T) {
	var b strings.Builder
	ActivationGrid(&b, "layer1", []bool{true, false, true, true, false, false}, 3)
	out := b.String()
	if !strings.Contains(out, "3/6 activated (50.0%)") {
		t.Errorf("summary wrong:\n%s", out)
	}
	if !strings.Contains(out, "#.#") || !strings.Contains(out, "#..") {
		t.Errorf("grid rows wrong:\n%s", out)
	}
}

func TestActivationGridDefaultWidth(t *testing.T) {
	var b strings.Builder
	ActivationGrid(&b, "l", make([]bool, 40), 0)
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	// 40 neurons at default width 32 → 2 grid rows + 1 summary.
	if len(lines) != 3 {
		t.Errorf("lines = %d, want 3:\n%s", len(lines), b.String())
	}
}

func TestFrameSnapshotPolarity(t *testing.T) {
	f := tensor.New(2, 2, 2)
	f.Set(1, 0, 0, 0) // ON at (0,0)
	f.Set(1, 1, 0, 1) // OFF at (0,1)
	f.Set(1, 0, 1, 0) // both at (1,0)
	f.Set(1, 1, 1, 0)
	var b strings.Builder
	FrameSnapshot(&b, f, "t=0")
	out := b.String()
	if !strings.Contains(out, "+-") {
		t.Errorf("row 0 should be \"+-\":\n%s", out)
	}
	if !strings.Contains(out, "*.") {
		t.Errorf("row 1 should be \"*.\":\n%s", out)
	}
}

func TestFrameSnapshotNonDVS(t *testing.T) {
	var b strings.Builder
	FrameSnapshot(&b, tensor.FromSlice([]float64{0, 0.5, 1}, 3), "audio")
	out := b.String()
	if !strings.Contains(out, "audio") || len(strings.Split(strings.TrimSpace(out), "\n")) != 2 {
		t.Errorf("non-DVS snapshot should render one strip:\n%s", out)
	}
}

func TestHistogramChart(t *testing.T) {
	var b strings.Builder
	HistogramChart(&b, "diffs", []int{4, 0, 2}, 1.5)
	out := b.String()
	if !strings.Contains(out, "diffs") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "[   0.0,   1.5)") {
		t.Errorf("bin labels wrong:\n%s", out)
	}
	// Tallest bin renders 50 blocks; count 2 renders 25.
	if strings.Count(out, "█") != 75 {
		t.Errorf("bar lengths wrong (%d blocks):\n%s", strings.Count(out, "█"), out)
	}
}

func TestHistogramChartEmpty(t *testing.T) {
	var b strings.Builder
	HistogramChart(&b, "none", []int{0, 0}, 1)
	if !strings.Contains(b.String(), "(empty)") {
		t.Error("empty histogram should say so")
	}
}

func TestShadeBounds(t *testing.T) {
	if shade(-1) != ' ' || shade(0) != ' ' {
		t.Error("low intensities must map to blank")
	}
	if shade(1) != '@' || shade(2) != '@' {
		t.Error("high intensities must map to densest shade")
	}
}
