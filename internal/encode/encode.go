// Package encode converts between analog frames and spike-train tensors:
// DVS-style polarity events from consecutive intensity frames, and
// per-element spike counts from a stimulus. Stimuli are binary tensors of
// shape [T, frame...].
package encode

import (
	"fmt"

	"github.com/repro/snntest/internal/tensor"
)

// Counts decodes a stimulus [T, frame...] into per-element spike counts
// with the frame's shape.
func Counts(stim *tensor.Tensor) *tensor.Tensor {
	shape := stim.Shape()
	if len(shape) < 2 {
		failf("stimulus must be [T, frame...], got %v", shape)
	}
	steps := shape[0]
	frame := stim.Len() / steps
	out := tensor.New(shape[1:]...)
	sd, od := stim.Data(), out.Data()
	for t := 0; t < steps; t++ {
		for i := 0; i < frame; i++ {
			od[i] += sd[t*frame+i]
		}
	}
	return out
}

// EventsFromMotion converts a pair of consecutive intensity frames into
// DVS-style polarity events: channel 0 (ON) fires where brightness
// increased by more than eps, channel 1 (OFF) where it decreased. The
// frames must share shape [H,W]; the result is [2,H,W].
func EventsFromMotion(prev, cur *tensor.Tensor, eps float64) *tensor.Tensor {
	if !tensor.SameShape(prev, cur) || prev.Rank() != 2 {
		failf("EventsFromMotion requires matching [H,W] frames, got %v and %v", prev.Shape(), cur.Shape())
	}
	h, w := prev.Dim(0), prev.Dim(1)
	out := tensor.New(2, h, w)
	pd, cd, od := prev.Data(), cur.Data(), out.Data()
	for i := range pd {
		d := cd[i] - pd[i]
		if d > eps {
			od[i] = 1 // ON channel
		} else if d < -eps {
			od[h*w+i] = 1 // OFF channel
		}
	}
	return out
}

// failf is the package's invariant-check chokepoint: encoders are
// hot-path kernels whose shape/parameter misuse is a programmer error.
func failf(format string, args ...any) {
	panic("encode: " + fmt.Sprintf(format, args...))
}
