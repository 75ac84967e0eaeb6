package encode

import (
	"testing"

	"github.com/repro/snntest/internal/tensor"
)

func TestCountsRoundTrip(t *testing.T) {
	stim := tensor.New(3, 2)
	stim.Set(1, 0, 0)
	stim.Set(1, 2, 0)
	stim.Set(1, 1, 1)
	c := Counts(stim)
	if c.At(0) != 2 || c.At(1) != 1 {
		t.Errorf("Counts = %v", c)
	}
}

func TestEventsFromMotion(t *testing.T) {
	prev := tensor.FromSlice([]float64{0, 1, 0.5, 0.5}, 2, 2)
	cur := tensor.FromSlice([]float64{1, 0, 0.5, 0.6}, 2, 2)
	ev := EventsFromMotion(prev, cur, 0.05)
	if ev.At(0, 0, 0) != 1 {
		t.Error("brightening pixel must fire ON")
	}
	if ev.At(1, 0, 1) != 1 {
		t.Error("darkening pixel must fire OFF")
	}
	if ev.At(0, 1, 0) != 0 || ev.At(1, 1, 0) != 0 {
		t.Error("unchanged pixel must stay silent")
	}
	if ev.At(0, 1, 1) != 1 {
		t.Error("small increase above eps must fire ON")
	}
}

func TestEventsFromMotionShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	EventsFromMotion(tensor.New(2, 2), tensor.New(2, 3), 0.1)
}
