package fault

import (
	"math"

	"github.com/repro/snntest/internal/snn"
)

// Injector applies faults to a private clone of a network and reverts
// them, so thousands of faults can be simulated without re-cloning the
// model per fault. Each Injector owns its clone; use one Injector per
// worker goroutine.
type Injector struct {
	net     *snn.Network
	satVals []float64 // per-layer saturation magnitude: SaturationFactor·max|w|
	scratch *snn.Scratch
	spares  []overrideSpares
}

// overrideSpares holds one layer's per-neuron override slices while no
// fault uses them. A neuron fault on a layer without overrides borrows
// the spare (allocated by the Layer setter on first use); its revert
// restores the entry, which leaves every entry at its unset sentinel,
// and hands the slice back. The layer is then override-free again —
// HasFaultOverrides false, so the next fault's simulation takes
// stepLayer's healthy loop — and no fault after the first allocates.
type overrideSpares struct {
	modes             []snn.NeuronMode
	thresholds, leaks []float64
	refracs           []int
}

// borrow installs the spare in *slot when the layer has no override
// slice of this kind and reports whether it did. The spare may be nil,
// in which case the Layer setter allocates a fresh sentinel-filled one.
func borrow[E any](slot, spare *[]E) bool {
	if *slot != nil {
		return false
	}
	*slot, *spare = *spare, nil
	return true
}

// giveBack detaches a borrowed override slice from the layer and keeps
// it as the spare for the next fault.
func giveBack[E any](slot, spare *[]E) {
	*spare, *slot = *slot, nil
}

// NewInjector clones the golden network for fault application.
func NewInjector(golden *snn.Network) *Injector {
	net := golden.Clone()
	sat := make([]float64, len(net.Layers))
	for i, l := range net.Layers {
		sat[i] = SaturationFactor * l.MaxAbsWeight()
	}
	return &Injector{net: net, satVals: sat, spares: make([]overrideSpares, len(net.Layers))}
}

// Net returns the injector's working network. It reflects the currently
// applied fault, if any.
func (inj *Injector) Net() *snn.Network { return inj.net }

// Scratch returns the injector's reusable simulation scratch, allocated
// on first use. Campaign loops run thousands of simulations through it so
// the per-fault state and record allocations of a cold snn.Network.Run
// disappear; like the injector itself, it belongs to one goroutine.
func (inj *Injector) Scratch() *snn.Scratch {
	if inj.scratch == nil {
		inj.scratch = inj.net.NewScratch()
	}
	return inj.scratch
}

// Apply injects f into the working network and returns a function that
// restores the pre-fault state, including the layer's override-free
// state when the fault was the layer's only override. Exactly one fault
// should be active at a time.
func (inj *Injector) Apply(f Fault) (revert func()) {
	l := inj.net.Layers[f.Layer]
	sp := &inj.spares[f.Layer]
	switch f.Kind {
	case NeuronDead, NeuronSaturated:
		lent := borrow(&l.Modes, &sp.modes)
		prev := snn.NeuronNormal
		if l.Modes != nil {
			prev = l.Modes[f.Neuron]
		}
		mode := snn.NeuronDead
		if f.Kind == NeuronSaturated {
			mode = snn.NeuronSaturated
		}
		l.SetNeuronMode(f.Neuron, mode)
		return func() {
			l.Modes[f.Neuron] = prev
			if lent {
				giveBack(&l.Modes, &sp.modes)
			}
		}

	case NeuronThresholdVar:
		lent := borrow(&l.Thresholds, &sp.thresholds)
		prev := 0.0
		if l.Thresholds != nil {
			prev = l.Thresholds[f.Neuron]
		}
		l.SetNeuronThreshold(f.Neuron, l.LIF.Threshold*f.Delta)
		return func() {
			l.Thresholds[f.Neuron] = prev
			if lent {
				giveBack(&l.Thresholds, &sp.thresholds)
			}
		}

	case NeuronLeakVar:
		lent := borrow(&l.Leaks, &sp.leaks)
		prev := 0.0
		if l.Leaks != nil {
			prev = l.Leaks[f.Neuron]
		}
		leak := l.LIF.Leak * f.Delta
		if leak > 1 {
			leak = 1
		}
		l.SetNeuronLeak(f.Neuron, leak)
		return func() {
			l.Leaks[f.Neuron] = prev
			if lent {
				giveBack(&l.Leaks, &sp.leaks)
			}
		}

	case NeuronRefractoryVar:
		lent := borrow(&l.Refracs, &sp.refracs)
		prev := -1
		if l.Refracs != nil {
			prev = l.Refracs[f.Neuron]
		}
		l.SetNeuronRefractory(f.Neuron, l.LIF.Refractory+int(math.Round(f.Delta)))
		return func() {
			l.Refracs[f.Neuron] = prev
			if lent {
				giveBack(&l.Refracs, &sp.refracs)
			}
		}

	case SynapseDead, SynapseSatPos, SynapseSatNeg, SynapseBitFlip:
		w := l.SynapseWeightAt(f.Synapse)
		prev := *w
		switch f.Kind {
		case SynapseDead:
			*w = 0
		case SynapseSatPos:
			*w = inj.satVals[f.Layer]
		case SynapseSatNeg:
			*w = -inj.satVals[f.Layer]
		case SynapseBitFlip:
			*w = flipQuantizedBit(prev, f.Bit, inj.satVals[f.Layer]/SaturationFactor)
		}
		return func() { *w = prev }

	default:
		// Unreachable after Validate: campaign entry points reject
		// unknown kinds before any injection loop starts.
		failf("unknown kind %v", f.Kind)
		return nil
	}
}

// flipQuantizedBit models a bit-flip in an 8-bit signed fixed-point weight
// memory: the weight is quantized with the layer's max|w| mapped to 127,
// the requested bit of the two's-complement code is flipped, and the
// result is dequantized. Bit 7 is the sign bit.
//
//snn:hotpath
func flipQuantizedBit(w float64, bit int, maxAbs float64) float64 {
	if maxAbs == 0 { //lint:ignore floateq degenerate all-zero weight matrix guard; max|w| is exactly 0 only then
		return w
	}
	scale := maxAbs / 127
	q := int(math.Round(w / scale))
	if q > 127 {
		q = 127
	} else if q < -128 {
		q = -128
	}
	code := uint8(int8(q))
	code ^= 1 << uint(bit)
	return float64(int8(code)) * scale
}
