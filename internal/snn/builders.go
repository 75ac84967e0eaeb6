package snn

import (
	"fmt"
	"math/rand"

	"github.com/repro/snntest/internal/tensor"
)

// ModelScale selects how large a benchmark model to build. The paper's
// full-size models (Table I) run on an A100; this reproduction exposes the
// same architectures at three sizes so the full pipeline stays runnable on
// one CPU core.
type ModelScale int

const (
	// ScaleTiny is for unit tests: seconds per experiment.
	ScaleTiny ModelScale = iota
	// ScaleSmall is for examples and benchmark tables: minutes end-to-end.
	ScaleSmall
	// ScaleFull mirrors the paper's input geometry (2×34×34, 2×128×128,
	// 700 channels). Building it is cheap; simulating it is not.
	ScaleFull
)

func (s ModelScale) String() string {
	switch s {
	case ScaleTiny:
		return "tiny"
	case ScaleSmall:
		return "small"
	case ScaleFull:
		return "full"
	default:
		return fmt.Sprintf("ModelScale(%d)", int(s))
	}
}

// ParseScale is the inverse of ModelScale.String: it accepts "tiny",
// "small" or "full" and rejects anything else.
func ParseScale(s string) (ModelScale, error) {
	for _, sc := range []ModelScale{ScaleTiny, ScaleSmall, ScaleFull} {
		if s == sc.String() {
			return sc, nil
		}
	}
	return 0, fmt.Errorf("snn: unknown scale %q (want tiny, small or full)", s)
}

// PoolWeight is the fixed synaptic weight of spiking pooling layers: large
// enough that a modestly active window drives the pooled LIF neuron past
// threshold, as in SLAYER's spiking aggregation layers.
const PoolWeight = 0.9

// BuildNMNIST constructs the NMNIST-style convolutional SNN of Fig. 4:
// a DVS frame [2,H,H] → strided 5×5 convolution → 3×3 spiking sum-pool →
// dense readout over 10 digit classes.
func BuildNMNIST(rng *rand.Rand, sc ModelScale) (*Network, error) {
	var h, ch, k, stride, pool int
	switch sc {
	case ScaleTiny:
		h, ch, k, stride, pool = 11, 3, 3, 2, 1 // conv → 3×5×5
	case ScaleSmall:
		h, ch, k, stride, pool = 17, 6, 5, 2, 1 // conv → 6×7×7
	default:
		h, ch, k, stride, pool = 34, 8, 5, 2, 3 // conv → 8×15×15, pool → 8×5×5
	}
	inShape := []int{2, h, h}
	lif := DefaultLIF()
	b := &layerBuilder{lif: lif}

	kernel := tensor.KaimingNormal(rng, 2*k*k, ch, 2, k, k)
	conv := b.conv("conv1", kernel, inShape, tensor.ConvSpec{Stride: stride})

	cur := conv.OutShape()
	if pool > 1 {
		pp := b.pool("pool1", cur, pool)
		cur = pp.OutShape()
	}
	hidden := flatLen(cur)
	b.dense("out", tensor.KaimingNormal(rng, hidden, 10, hidden))

	return b.network("nmnist", inShape, 1.0)
}

// BuildIBMGesture constructs the DVS128-Gesture-style SNN of Fig. 5:
// [2,H,H] DVS frames → spiking sum-pool (spatial downsampling) → strided
// convolution → sum-pool → dense readout over 11 gesture classes.
func BuildIBMGesture(rng *rand.Rand, sc ModelScale) (*Network, error) {
	var h, pre, ch, k, stride, post int
	switch sc {
	case ScaleTiny:
		h, pre, ch, k, stride, post = 16, 2, 3, 3, 1, 2 // pool→2×8×8, conv→3×6×6, pool→3×3×3
	case ScaleSmall:
		h, pre, ch, k, stride, post = 32, 2, 6, 5, 1, 2 // pool→2×16×16, conv→6×12×12, pool→6×6×6
	default:
		h, pre, ch, k, stride, post = 128, 4, 16, 5, 2, 2 // pool→2×32×32, conv→16×14×14, pool→16×7×7
	}
	inShape := []int{2, h, h}
	b := &layerBuilder{lif: DefaultLIF()}

	pool1 := b.pool("pool1", inShape, pre)

	kernel := tensor.KaimingNormal(rng, 2*k*k, ch, 2, k, k)
	conv := b.conv("conv1", kernel, pool1.OutShape(), tensor.ConvSpec{Stride: stride})

	pool2 := b.pool("pool2", conv.OutShape(), post)

	hidden := flatLen(pool2.OutShape())
	b.dense("out", tensor.KaimingNormal(rng, hidden, 11, hidden))

	return b.network("ibm-gesture", inShape, 1.0)
}

// BuildSHD constructs the Spiking-Heidelberg-Digits-style SNN of Fig. 6:
// 700 audio channels → recurrently connected hidden LIF population →
// dense readout over 20 spoken-digit classes.
func BuildSHD(rng *rand.Rand, sc ModelScale) (*Network, error) {
	var in, hidden int
	switch sc {
	case ScaleTiny:
		in, hidden = 40, 24
	case ScaleSmall:
		in, hidden = 140, 64
	default:
		in, hidden = 700, 384
	}
	b := &layerBuilder{lif: DefaultLIF()}

	w := tensor.KaimingNormal(rng, in, hidden, in)
	// Recurrent weights start small so the untrained network is stable.
	r := tensor.RandNormal(rng, 0, 0.3/float64(hidden), hidden, hidden)
	b.recurrent("recurrent1", w, r)

	b.dense("out", tensor.KaimingNormal(rng, hidden, 20, hidden))

	return b.network("shd", []int{in}, 1.0)
}

// Build constructs the named benchmark model ("nmnist", "ibm-gesture"
// or "shd") at the given scale — the single dispatch point shared by the
// CLIs and the experiment pipeline.
func Build(benchmark string, rng *rand.Rand, sc ModelScale) (*Network, error) {
	switch benchmark {
	case "nmnist":
		return BuildNMNIST(rng, sc)
	case "ibm-gesture":
		return BuildIBMGesture(rng, sc)
	case "shd":
		return BuildSHD(rng, sc)
	default:
		return nil, fmt.Errorf("snn: unknown benchmark %q (want nmnist, ibm-gesture or shd)", benchmark)
	}
}

// layerBuilder accumulates layers and defers error handling to the
// final network() call, keeping the Build* bodies linear.
type layerBuilder struct {
	lif    LIFParams
	layers []*Layer
	err    error
}

func (b *layerBuilder) add(name string, proj Projection, err error) {
	if b.err != nil {
		return
	}
	if err != nil {
		b.err = err
		return
	}
	l, err := NewLayer(name, proj, b.lif)
	if err != nil {
		b.err = err
		return
	}
	b.layers = append(b.layers, l)
}

func (b *layerBuilder) conv(name string, kernel *tensor.Tensor, inShape []int, spec tensor.ConvSpec) *ConvProj {
	p, err := NewConvProj(kernel, inShape, spec)
	b.add(name, p, err)
	if p == nil {
		return &ConvProj{}
	}
	return p
}

func (b *layerBuilder) pool(name string, inShape []int, k int) *PoolProj {
	p, err := NewPoolProj(inShape, k, PoolWeight)
	b.add(name, p, err)
	if p == nil {
		return &PoolProj{}
	}
	return p
}

func (b *layerBuilder) dense(name string, w *tensor.Tensor) {
	p, err := NewDenseProj(w)
	b.add(name, p, err)
}

func (b *layerBuilder) recurrent(name string, w, r *tensor.Tensor) {
	p, err := NewRecurrentProj(w, r)
	b.add(name, p, err)
}

func (b *layerBuilder) network(name string, inShape []int, stepMS float64) (*Network, error) {
	if b.err != nil {
		return nil, fmt.Errorf("snn: building %q: %w", name, b.err)
	}
	return NewNetwork(name, inShape, stepMS, b.layers...)
}

// SampleSteps returns the per-benchmark duration, in simulation steps, of
// one dataset sample at the given scale; the paper's sample durations
// (300 ms, 1.45 s, 1 s at 1 kHz) apply at full scale.
func SampleSteps(benchmark string, sc ModelScale) (int, error) {
	full := map[string]int{"nmnist": 300, "ibm-gesture": 1450, "shd": 1000}
	f, ok := full[benchmark]
	if !ok {
		return 0, fmt.Errorf("snn: unknown benchmark %q (want nmnist, ibm-gesture or shd)", benchmark)
	}
	switch sc {
	case ScaleTiny:
		return f / 10, nil
	case ScaleSmall:
		return f / 5, nil
	default:
		return f, nil
	}
}
