// Package report renders the experiment artifacts as text: aligned
// tables (Tables I–IV), ASCII activation heatmaps (Fig. 8), stimulus
// snapshots (Fig. 7) and spike-count-difference histograms (Fig. 9), plus
// CSV output for downstream plotting.
//
// Every renderer returns the first error of the underlying writer, so a
// full report pipeline writing to a file surfaces disk failures instead
// of silently truncating artifacts.
package report

import (
	"fmt"
	"io"
	"strings"

	"github.com/repro/snntest/internal/tensor"
)

// errWriter tracks the first error of a sequence of writes; all later
// writes become no-ops. It lets the renderers stay linear instead of
// threading `if err != nil` through every Fprintf.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) printf(format string, args ...any) {
	if ew.err == nil {
		_, ew.err = fmt.Fprintf(ew.w, format, args...)
	}
}

func (ew *errWriter) println(args ...any) {
	if ew.err == nil {
		_, ew.err = fmt.Fprintln(ew.w, args...)
	}
}

// Table writes an aligned text table with a title, header row and data
// rows. The rule under the header is as wide as the rendered header row,
// so a wider cell in the last column (a wall-clock time, say) leaves
// every line but its own unchanged.
func Table(w io.Writer, title string, headers []string, rows [][]string) error {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		return strings.TrimRight(b.String(), " ")
	}
	ew := &errWriter{w: w}
	if title != "" {
		ew.printf("%s\n%s\n", title, strings.Repeat("=", len(title)))
	}
	header := line(headers)
	ew.println(header)
	ew.println(strings.Repeat("-", len(header)))
	for _, r := range rows {
		ew.println(line(r))
	}
	ew.println()
	return ew.err
}

// shades maps an intensity in [0,1] to an ASCII shade.
var shades = []byte(" .:-=+*#%@")

// shade returns the ASCII character for intensity v ∈ [0,1].
func shade(v float64) byte {
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	i := int(v * float64(len(shades)-1))
	return shades[i]
}

// ActivationGrid renders a boolean activation vector as a rectangular
// ASCII grid of the given width ('#' activated, '.' silent) — one layer
// of the paper's Fig. 8 custom grid layout.
func ActivationGrid(w io.Writer, name string, activated []bool, width int) error {
	if width <= 0 {
		width = 32
	}
	act := 0
	for _, a := range activated {
		if a {
			act++
		}
	}
	ew := &errWriter{w: w}
	ew.printf("%s: %d/%d activated (%.1f%%)\n", name, act, len(activated), 100*float64(act)/float64(max(1, len(activated))))
	for i := 0; i < len(activated); i += width {
		var b strings.Builder
		for j := i; j < i+width && j < len(activated); j++ {
			if activated[j] {
				b.WriteByte('#')
			} else {
				b.WriteByte('.')
			}
		}
		ew.println(b.String())
	}
	return ew.err
}

// FrameSnapshot renders one [2,H,W] polarity event frame: '+' for ON
// events, '-' for OFF events, '*' where both fire — the paper's Fig. 7
// stimulus snapshots (blue/red dots in the original).
func FrameSnapshot(w io.Writer, frame *tensor.Tensor, label string) error {
	ew := &errWriter{w: w}
	if frame.Rank() != 3 || frame.Dim(0) != 2 {
		// Non-DVS frames render as a single-row intensity strip.
		ew.printf("%s\n", label)
		var b strings.Builder
		for _, v := range frame.Data() {
			b.WriteByte(shade(v))
		}
		ew.println(b.String())
		return ew.err
	}
	h, wd := frame.Dim(1), frame.Dim(2)
	ew.printf("%s\n", label)
	for y := 0; y < h; y++ {
		var b strings.Builder
		for x := 0; x < wd; x++ {
			on := frame.At(0, y, x) == 1  //lint:ignore floateq event frames hold exactly 0 or 1
			off := frame.At(1, y, x) == 1 //lint:ignore floateq event frames hold exactly 0 or 1
			switch {
			case on && off:
				b.WriteByte('*')
			case on:
				b.WriteByte('+')
			case off:
				b.WriteByte('-')
			default:
				b.WriteByte('.')
			}
		}
		ew.println(b.String())
	}
	return ew.err
}

// HistogramChart renders bin counts as a horizontal ASCII bar chart with
// bin-range labels.
func HistogramChart(w io.Writer, title string, counts []int, binWidth float64) error {
	ew := &errWriter{w: w}
	ew.println(title)
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	if maxCount == 0 {
		ew.println("  (empty)")
		return ew.err
	}
	const barMax = 50
	for i, c := range counts {
		bar := c * barMax / maxCount
		ew.printf("  [%6.1f,%6.1f) %s %d\n",
			float64(i)*binWidth, float64(i+1)*binWidth, strings.Repeat("█", bar), c)
	}
	return ew.err
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
