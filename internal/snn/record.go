package snn

import (
	"github.com/repro/snntest/internal/tensor"
)

// Record holds the output spike trains of every neuron in every layer for
// one simulation run: Layers[ℓ] has shape [T, Nℓ] with binary entries —
// the O^{ℓi} trains of the paper, stored step-major.
type Record struct {
	Steps  int
	Layers []*tensor.Tensor
}

// NewRecord allocates an all-zero record for the network over the given
// number of steps.
func NewRecord(n *Network, steps int) *Record {
	r := &Record{Steps: steps, Layers: make([]*tensor.Tensor, len(n.Layers))}
	for i, l := range n.Layers {
		r.Layers[i] = tensor.New(steps, l.NumNeurons())
	}
	return r
}

// ReplayInput returns the recorded spike frame that feeds layer `layer`
// at step t when this record is replayed as the input of an incremental
// re-simulation: layer ℓ ≥ 1 is driven by layer ℓ−1's recorded output
// row, returned as a length-N view sharing the record's storage (layer 0
// is driven by the raw stimulus, which the record does not hold).
func (r *Record) ReplayInput(layer, t int) *tensor.Tensor {
	return r.Layers[layer-1].Step(t)
}

// Matches reports whether the record can serve as the golden replay trace
// for the network over the given step count: same layer count, same step
// count, and per-layer widths equal to the network's neuron counts.
func (r *Record) Matches(n *Network, steps int) bool {
	if r.Steps != steps || len(r.Layers) != len(n.Layers) {
		return false
	}
	for i, l := range n.Layers {
		if r.Layers[i].Dim(1) != l.NumNeurons() {
			return false
		}
	}
	return true
}

// Counts returns the per-neuron spike counts |O^{ℓi}| of layer ℓ.
func (r *Record) Counts(layer int) *tensor.Tensor {
	return tensor.SumCols(r.Layers[layer])
}

// Output returns the output layer's spike trains, shape [T, N^L].
func (r *Record) Output() *tensor.Tensor {
	return r.Layers[len(r.Layers)-1]
}

// OutputCounts returns the output layer's per-class spike counts.
func (r *Record) OutputCounts() *tensor.Tensor {
	return r.Counts(len(r.Layers) - 1)
}

// NeuronTrain returns a copy of neuron i's spike train in layer ℓ as a
// length-T vector.
func (r *Record) NeuronTrain(layer, i int) *tensor.Tensor {
	lt := r.Layers[layer]
	t := tensor.New(r.Steps)
	for s := 0; s < r.Steps; s++ {
		t.Data()[s] = lt.At(s, i)
	}
	return t
}

// ActivatedNeurons returns the set of globally indexed neurons that fired
// at least minSpikes spikes, using the network's layer offsets.
func (r *Record) ActivatedNeurons(offsets []int, minSpikes float64) map[int]bool {
	act := make(map[int]bool)
	for li, lt := range r.Layers {
		counts := tensor.SumCols(lt)
		for i, c := range counts.Data() {
			if c >= minSpikes {
				act[offsets[li]+i] = true
			}
		}
	}
	return act
}

// TemporalDiversity returns, for each neuron of layer ℓ, the number of
// state changes of its output train (Eq. 11).
func (r *Record) TemporalDiversity(layer int) *tensor.Tensor {
	lt := r.Layers[layer]
	n := lt.Dim(1)
	td := tensor.New(n)
	for s := 1; s < r.Steps; s++ {
		prev := lt.RawRange((s-1)*n, n)
		cur := lt.RawRange(s*n, n)
		for i := 0; i < n; i++ {
			d := cur[i] - prev[i]
			if d < 0 {
				d = -d
			}
			td.Data()[i] += d
		}
	}
	return td
}
