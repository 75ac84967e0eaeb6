package snn

import (
	"fmt"

	"github.com/repro/snntest/internal/tensor"
)

// Layer is one spiking layer: a synaptic projection feeding a population
// of LIF neurons. The LIF parameters are layer-wide defaults; the optional
// per-neuron override slices exist to express injected faults (parameter
// "timing variation" faults and dead/saturated behavioural faults) and are
// nil on a healthy network.
type Layer struct {
	Name string
	Proj Projection
	LIF  LIFParams

	// Per-neuron fault overrides; nil means "no neuron in this layer is
	// overridden". When non-nil they have length NumNeurons().
	Modes      []NeuronMode
	Thresholds []float64 // 0 entries fall back to LIF.Threshold
	Leaks      []float64 // 0 entries fall back to LIF.Leak
	Refracs    []int     // -1 entries fall back to LIF.Refractory
}

// NewLayer wires a projection to a LIF population.
func NewLayer(name string, proj Projection, lif LIFParams) (*Layer, error) {
	if err := lif.Validate(); err != nil {
		return nil, fmt.Errorf("snn: layer %q: %w", name, err)
	}
	return &Layer{Name: name, Proj: proj, LIF: lif}, nil
}

// NumNeurons returns the neuron count of this layer.
func (l *Layer) NumNeurons() int {
	n := 1
	for _, d := range l.Proj.OutShape() {
		n *= d
	}
	return n
}

// NumSynapses returns the faultable synapse count of this layer.
func (l *Layer) NumSynapses() int { return l.Proj.NumSynapses() }

// HasFaultOverrides reports whether any per-neuron override slice is set.
func (l *Layer) HasFaultOverrides() bool {
	return l.Modes != nil || l.Thresholds != nil || l.Leaks != nil || l.Refracs != nil
}

// mode returns the behavioural mode of neuron i.
//
//snn:hotpath
func (l *Layer) mode(i int) NeuronMode {
	if l.Modes == nil {
		return NeuronNormal
	}
	return l.Modes[i]
}

// threshold returns the effective firing threshold of neuron i.
//
//snn:hotpath
func (l *Layer) threshold(i int) float64 {
	if l.Thresholds != nil && l.Thresholds[i] != 0 { //lint:ignore floateq 0 is the documented unset sentinel for per-neuron thresholds
		return l.Thresholds[i]
	}
	return l.LIF.Threshold
}

// leak returns the effective membrane retention of neuron i.
//
//snn:hotpath
func (l *Layer) leak(i int) float64 {
	if l.Leaks != nil && l.Leaks[i] != 0 { //lint:ignore floateq 0 is the documented unset sentinel for per-neuron leaks
		return l.Leaks[i]
	}
	return l.LIF.Leak
}

// refractory returns the effective refractory period of neuron i.
//
//snn:hotpath
func (l *Layer) refractory(i int) int {
	if l.Refracs != nil && l.Refracs[i] >= 0 {
		return l.Refracs[i]
	}
	return l.LIF.Refractory
}

// overridden reports whether neuron i carries an override that is not
// the unset sentinel: exactly when one of the accessors mode, threshold,
// leak and refractory returns an override entry instead of the
// layer-wide default.
//
//snn:hotpath
func (l *Layer) overridden(i int) bool {
	return l.mode(i) != NeuronNormal ||
		(l.Thresholds != nil && l.Thresholds[i] != 0) || //lint:ignore floateq 0 is the documented unset sentinel for per-neuron thresholds
		(l.Leaks != nil && l.Leaks[i] != 0) || //lint:ignore floateq 0 is the documented unset sentinel for per-neuron leaks
		(l.Refracs != nil && l.Refracs[i] >= 0)
}

// SetNeuronMode marks neuron i with a behavioural fault mode, allocating
// the override slice on first use.
func (l *Layer) SetNeuronMode(i int, m NeuronMode) {
	if l.Modes == nil {
		l.Modes = make([]NeuronMode, l.NumNeurons())
	}
	l.Modes[i] = m
}

// SetNeuronThreshold overrides neuron i's firing threshold.
func (l *Layer) SetNeuronThreshold(i int, th float64) {
	if l.Thresholds == nil {
		l.Thresholds = make([]float64, l.NumNeurons())
	}
	l.Thresholds[i] = th
}

// SetNeuronLeak overrides neuron i's membrane retention.
func (l *Layer) SetNeuronLeak(i int, leak float64) {
	if l.Leaks == nil {
		l.Leaks = make([]float64, l.NumNeurons())
	}
	l.Leaks[i] = leak
}

// SetNeuronRefractory overrides neuron i's refractory period.
func (l *Layer) SetNeuronRefractory(i int, r int) {
	if l.Refracs == nil {
		l.Refracs = make([]int, l.NumNeurons())
		for j := range l.Refracs {
			l.Refracs[j] = -1
		}
	}
	l.Refracs[i] = r
}

// Clone returns a deep copy of the layer: weights and override slices are
// copied so fault injection into the clone never touches the original.
func (l *Layer) Clone() *Layer {
	c := &Layer{Name: l.Name, Proj: l.Proj.Clone(), LIF: l.LIF}
	if l.Modes != nil {
		c.Modes = append([]NeuronMode(nil), l.Modes...)
	}
	if l.Thresholds != nil {
		c.Thresholds = append([]float64(nil), l.Thresholds...)
	}
	if l.Leaks != nil {
		c.Leaks = append([]float64(nil), l.Leaks...)
	}
	if l.Refracs != nil {
		c.Refracs = append([]int(nil), l.Refracs...)
	}
	return c
}

// SynapseWeightAt returns a pointer to the storage of synapse s of this
// layer under the contiguous indexing convention (feedforward weights
// first, then recurrent weights for recurrent projections). It panics for
// layers without synapses — fault.Validate excludes that before any
// injection loop starts.
func (l *Layer) SynapseWeightAt(s int) *float64 {
	switch q := l.Proj.(type) {
	case *RecurrentProj:
		if s < q.W.Len() {
			return q.W.ElemPtr(s)
		}
		return q.R.ElemPtr(s - q.W.Len())
	default:
		w := l.Proj.Weights()
		if w == nil {
			failf("snn: layer %q has no faultable synapses", l.Name)
		}
		return w.ElemPtr(s)
	}
}

// MaxAbsWeight returns the largest absolute synapse weight of the layer
// (0 for weightless layers); fault models use it to define saturation
// outliers relative to the layer's weight distribution.
func (l *Layer) MaxAbsWeight() float64 {
	maxAbs := 0.0
	scan := func(t *tensor.Tensor) {
		if t == nil {
			return
		}
		for _, v := range t.Data() {
			if v < 0 {
				v = -v
			}
			if v > maxAbs {
				maxAbs = v
			}
		}
	}
	scan(l.Proj.Weights())
	if r, ok := l.Proj.(*RecurrentProj); ok {
		scan(r.R)
	}
	return maxAbs
}
