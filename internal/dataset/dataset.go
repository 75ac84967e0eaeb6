// Package dataset generates synthetic spiking datasets that stand in for
// the three benchmarks of the paper: NMNIST (saccade-driven DVS views of
// digit glyphs), IBM DVS128 Gesture (event streams of arm/hand motion
// trajectories), and Spiking Heidelberg Digits (cochleagram spike trains
// of spoken digits).
//
// The real datasets are not redistributable inside this offline
// reproduction, so each generator synthesizes event streams with the same
// input geometry, class count and qualitative spike statistics: DVS-style
// ON/OFF polarity events produced by moving intensity patterns for the
// two vision benchmarks, and drifting multi-formant Poisson spike trains
// for the audio benchmark. Classes are separable but noisy (per-sample
// jitter, phase and amplitude noise), so a trained SNN is structured and
// faults can be labelled critical or benign against real decision
// boundaries — the only properties the paper's algorithm depends on.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/repro/snntest/internal/encode"
	"github.com/repro/snntest/internal/snn"
	"github.com/repro/snntest/internal/tensor"
)

// Sample is one labelled spiking stimulus of shape [T, frame...].
type Sample struct {
	Input *tensor.Tensor
	Label int
}

// Dataset is a labelled train/test split of spiking stimuli.
type Dataset struct {
	Name        string
	InShape     []int
	NumClasses  int
	SampleSteps int
	Train       []Sample
	Test        []Sample
}

// Inputs returns the inputs and labels of the given split as parallel
// slices (split is "train" or "test").
func (d *Dataset) Inputs(split string) ([]*tensor.Tensor, []int) {
	var s []Sample
	switch split {
	case "train":
		s = d.Train
	case "test":
		s = d.Test
	default:
		// Programmer error: the split names are a closed enum.
		failf("unknown split %q (want train or test)", split)
	}
	ins := make([]*tensor.Tensor, len(s))
	labels := make([]int, len(s))
	for i, smp := range s {
		ins[i] = smp.Input
		labels[i] = smp.Label
	}
	return ins, labels
}

// Config sizes a generated dataset.
type Config struct {
	TrainPerClass int
	TestPerClass  int
	Steps         int // duration of one sample in simulation steps
	Seed          int64
}

// ForBenchmark generates the synthetic dataset matching a benchmark
// network's input geometry. The network must come from one of the
// snn.Build* constructors.
func ForBenchmark(net *snn.Network, cfg Config) (*Dataset, error) {
	switch net.Name {
	case "nmnist":
		return GenNMNIST(cfg, net.InShape[1]), nil
	case "ibm-gesture":
		return GenGesture(cfg, net.InShape[1]), nil
	case "shd":
		return GenSHD(cfg, net.InShape[0]), nil
	default:
		return nil, fmt.Errorf("dataset: no generator for benchmark %q", net.Name)
	}
}

// ---------------------------------------------------------------------------
// NMNIST-like: saccade views of digit glyphs

// GenNMNIST synthesizes the NMNIST stand-in on a 2×h×h DVS retina:
// each class is a distinct oriented-bar glyph; each sample views the glyph
// through a triangular three-saccade camera motion (as in the real NMNIST
// recording protocol), emitting ON/OFF events at moving edges.
func GenNMNIST(cfg Config, h int) *Dataset {
	const classes = 10
	d := &Dataset{
		Name:        "nmnist",
		InShape:     []int{2, h, h},
		NumClasses:  classes,
		SampleSteps: cfg.Steps,
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	gen := func(label int) Sample {
		return Sample{Input: nmnistSample(rng, h, cfg.Steps, label), Label: label}
	}
	d.Train, d.Test = fillSplits(classes, cfg, gen)
	return d
}

// nmnistSample renders one saccading glyph as an event stream.
func nmnistSample(rng *rand.Rand, h, steps, label int) *tensor.Tensor {
	angle := float64(label) * math.Pi / 10
	// Per-sample jitter of glyph position and orientation.
	jx := (rng.Float64() - 0.5) * float64(h) * 0.1
	jy := (rng.Float64() - 0.5) * float64(h) * 0.1
	angle += (rng.Float64() - 0.5) * 0.12
	// A secondary dot distinguishes glyphs with similar bar angles.
	dotPhase := float64(label%5) * 2 * math.Pi / 5

	out := tensor.New(steps, 2, h, h)
	prev := glyphFrame(h, angle, jx, jy, dotPhase, 0, 0)
	amp := float64(h) * 0.12
	for t := 0; t < steps; t++ {
		// Triangular saccade: three linear sweeps per sample.
		ph := 3 * float64(t) / float64(steps)
		seg := int(ph)
		frac := ph - float64(seg)
		var ox, oy float64
		switch seg {
		case 0:
			ox, oy = amp*frac, amp*frac*0.5
		case 1:
			ox, oy = amp*(1-frac), amp*0.5
		default:
			ox, oy = 0, amp*0.5*(1-frac)
		}
		cur := glyphFrame(h, angle, jx, jy, dotPhase, ox, oy)
		ev := encode.EventsFromMotion(prev, cur, 0.04)
		dropoutEvents(rng, ev, 0.1)
		out.Step(t).CopyFrom(ev)
		prev = cur
	}
	return out
}

// glyphFrame renders the intensity image of an oriented bar plus marker
// dot, shifted by (ox, oy).
func glyphFrame(h int, angle, jx, jy, dotPhase, ox, oy float64) *tensor.Tensor {
	f := tensor.New(h, h)
	cx := float64(h)/2 + jx + ox
	cy := float64(h)/2 + jy + oy
	dirX, dirY := math.Cos(angle), math.Sin(angle)
	barLen := float64(h) * 0.38
	barWidth := math.Max(1.0, float64(h)*0.08)
	dotR := math.Max(1.0, float64(h)*0.10)
	dotX := cx + math.Cos(dotPhase)*float64(h)*0.3
	dotY := cy + math.Sin(dotPhase)*float64(h)*0.3
	for y := 0; y < h; y++ {
		for x := 0; x < h; x++ {
			dx, dy := float64(x)-cx, float64(y)-cy
			along := dx*dirX + dy*dirY
			across := -dx*dirY + dy*dirX
			v := 0.0
			if math.Abs(along) < barLen && math.Abs(across) < barWidth {
				v = 1
			}
			ddx, ddy := float64(x)-dotX, float64(y)-dotY
			if ddx*ddx+ddy*ddy < dotR*dotR {
				v = 1
			}
			f.Set(v, y, x)
		}
	}
	return f
}

// ---------------------------------------------------------------------------
// DVS gesture-like: motion trajectories of a blob

// GenGesture synthesizes the DVS128-Gesture stand-in on a 2×h×h retina:
// each of the 11 classes is a distinct parametric motion of a bright blob
// (circles of either handedness, waves, diagonals, growth/contraction,
// zigzags and flicker), emitting polarity events at moving edges.
func GenGesture(cfg Config, h int) *Dataset {
	const classes = 11
	d := &Dataset{
		Name:        "ibm-gesture",
		InShape:     []int{2, h, h},
		NumClasses:  classes,
		SampleSteps: cfg.Steps,
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	gen := func(label int) Sample {
		return Sample{Input: gestureSample(rng, h, cfg.Steps, label), Label: label}
	}
	d.Train, d.Test = fillSplits(classes, cfg, gen)
	return d
}

// gestureSample renders one gesture trajectory as an event stream.
func gestureSample(rng *rand.Rand, h, steps, label int) *tensor.Tensor {
	out := tensor.New(steps, 2, h, h)
	phase := rng.Float64() * 2 * math.Pi // per-sample start phase
	speed := 1 + (rng.Float64()-0.5)*0.3 // per-sample tempo
	prev := blobFrame(h, gesturePos(label, 0, phase, speed, h))
	for t := 0; t < steps; t++ {
		cur := blobFrame(h, gesturePos(label, float64(t+1)/float64(steps), phase, speed, h))
		ev := encode.EventsFromMotion(prev, cur, 0.04)
		dropoutEvents(rng, ev, 0.1)
		out.Step(t).CopyFrom(ev)
		prev = cur
	}
	return out
}

// blobState is the center and radius of the gesture blob.
type blobState struct{ x, y, r float64 }

// gesturePos returns the blob state for gesture class at normalized time
// u ∈ [0,1].
func gesturePos(label int, u, phase, speed float64, h int) blobState {
	c := float64(h) / 2
	a := float64(h) * 0.28 // motion amplitude
	r := math.Max(1.5, float64(h)*0.11)
	w := 2*math.Pi*speed*u + phase
	switch label {
	case 0: // clockwise circle
		return blobState{c + a*math.Cos(w), c + a*math.Sin(w), r}
	case 1: // counter-clockwise circle
		return blobState{c + a*math.Cos(-w), c + a*math.Sin(-w), r}
	case 2: // horizontal wave
		return blobState{c + a*math.Sin(w), c, r}
	case 3: // vertical wave
		return blobState{c, c + a*math.Sin(w), r}
	case 4: // rising diagonal sweep
		return blobState{c + a*(2*u-1), c + a*(2*u-1), r}
	case 5: // falling diagonal sweep
		return blobState{c + a*(2*u-1), c - a*(2*u-1), r}
	case 6: // growing blob
		return blobState{c, c, r * (0.6 + 1.6*u)}
	case 7: // shrinking blob
		return blobState{c, c, r * (2.2 - 1.6*u)}
	case 8: // L-shape: right then down
		if u < 0.5 {
			return blobState{c - a + 4*a*u, c - a, r}
		}
		return blobState{c + a, c - a + 4*a*(u-0.5), r}
	case 9: // zigzag
		return blobState{c + a*(2*u-1), c + a*0.8*math.Sin(3*w), r}
	default: // 10: pulsing in place
		return blobState{c, c, r * (1 + 0.7*math.Sin(2*w))}
	}
}

// blobFrame renders a soft-edged disc.
func blobFrame(h int, b blobState) *tensor.Tensor {
	f := tensor.New(h, h)
	for y := 0; y < h; y++ {
		for x := 0; x < h; x++ {
			dx, dy := float64(x)-b.x, float64(y)-b.y
			d := math.Sqrt(dx*dx+dy*dy) - b.r
			switch {
			case d <= 0:
				f.Set(1, y, x)
			case d < 1.5:
				f.Set(1-d/1.5, y, x)
			}
		}
	}
	return f
}

// ---------------------------------------------------------------------------
// SHD-like: spoken-digit cochleagram spike trains

// GenSHD synthesizes the Spiking-Heidelberg-Digits stand-in over c audio
// channels: each of the 20 classes (ten digits × two languages in the real
// dataset) is a pair of formant tracks — Gaussian activity bumps over the
// channel axis whose centers drift with class-specific slopes — sampled as
// Bernoulli spikes per step.
func GenSHD(cfg Config, channels int) *Dataset {
	const classes = 20
	d := &Dataset{
		Name:        "shd",
		InShape:     []int{channels},
		NumClasses:  classes,
		SampleSteps: cfg.Steps,
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	gen := func(label int) Sample {
		return Sample{Input: shdSample(rng, channels, cfg.Steps, label), Label: label}
	}
	d.Train, d.Test = fillSplits(classes, cfg, gen)
	return d
}

// shdSample renders one utterance as Bernoulli spikes of two drifting
// formant bumps.
func shdSample(rng *rand.Rand, channels, steps, label int) *tensor.Tensor {
	cf := float64(channels)
	// Class-specific formant geometry with per-sample jitter.
	base1 := cf * (0.15 + 0.6*float64(label%10)/10)
	slope1 := cf * 0.3 * (float64(label%4)/3 - 0.5)
	base2 := cf * (0.75 - 0.5*float64(label/10)) // language band
	slope2 := -slope1 * 0.6
	base1 += (rng.Float64() - 0.5) * cf * 0.04
	base2 += (rng.Float64() - 0.5) * cf * 0.04
	amp := 0.55 + rng.Float64()*0.2
	sigma := math.Max(1.0, cf*0.05)

	out := tensor.New(steps, channels)
	for t := 0; t < steps; t++ {
		u := float64(t) / float64(steps)
		c1 := base1 + slope1*u
		c2 := base2 + slope2*u
		for ch := 0; ch < channels; ch++ {
			x := float64(ch)
			r1 := math.Exp(-(x - c1) * (x - c1) / (2 * sigma * sigma))
			r2 := math.Exp(-(x - c2) * (x - c2) / (2 * sigma * sigma))
			p := amp * math.Max(r1, r2)
			if rng.Float64() < p {
				out.Set(1, t, ch)
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// shared helpers

// fillSplits draws TrainPerClass + TestPerClass samples per class.
func fillSplits(classes int, cfg Config, gen func(label int) Sample) (train, test []Sample) {
	for c := 0; c < classes; c++ {
		for i := 0; i < cfg.TrainPerClass; i++ {
			train = append(train, gen(c))
		}
		for i := 0; i < cfg.TestPerClass; i++ {
			test = append(test, gen(c))
		}
	}
	return train, test
}

// dropoutEvents randomly deletes a fraction p of the events in a frame,
// modelling sensor noise.
func dropoutEvents(rng *rand.Rand, ev *tensor.Tensor, p float64) {
	d := ev.Data()
	for i, v := range d {
		if v == 1 && rng.Float64() < p { //lint:ignore floateq event frames hold exactly 0 or 1
			d[i] = 0
		}
	}
}

// failf is the package's invariant-check chokepoint for closed-enum
// misuse that validated entry points have already excluded.
func failf(format string, args ...any) {
	panic("dataset: " + fmt.Sprintf(format, args...))
}
