package snn

import (
	"math"

	"github.com/repro/snntest/internal/tensor"
)

// Record holds the output spike trains of every neuron in every layer for
// one simulation run: Layers[ℓ] has shape [T, Nℓ] with binary entries —
// the O^{ℓi} trains of the paper, stored step-major.
//
// A record made by Network.Run also carries golden active lists: the
// ascending indices of every layer's spikes at every step, and of the
// non-zero entries of the stimulus it was run on. Replaying the record
// (RunFrom, DivergesFrom) reads a start layer's input events from them
// instead of rescanning the same golden rows for every fault. Both the
// record and its stimulus must therefore stay unmodified while the
// record serves as a golden trace.
type Record struct {
	Steps  int
	Layers []*tensor.Tensor

	// lists[ℓ] indexes Layers[ℓ]; nil on records without lists.
	lists []activeList
	// stim is the stimulus tensor the record was run on and stimList
	// its active list; stim is nil on records without lists.
	stim     *tensor.Tensor
	stimList activeList
}

// activeList is the CSR form of a [T, N] row-major tensor's non-zero
// entries: row t's ascending column indices are idx[start[t]:start[t+1]].
type activeList struct {
	idx, start []int32
}

// newActiveList lists the non-zero entries of each of x's steps rows
// with tensor.NonZeroIndices, so each row equals the list a kernel would
// scan for itself. A counting pass sizes the list exactly.
func newActiveList(x *tensor.Tensor, steps int) activeList {
	width := x.Len() / steps
	buf := make([]int32, width)
	start := make([]int32, steps+1)
	total := 0
	for t := 0; t < steps; t++ {
		total += len(tensor.NonZeroIndices(buf, x.RawRange(t*width, width)))
		if total > math.MaxInt32 {
			failf("snn: active list of more than %d entries overflows int32", math.MaxInt32)
		}
		start[t+1] = int32(total)
	}
	idx := make([]int32, total)
	for t := 0; t < steps; t++ {
		copy(idx[start[t]:], tensor.NonZeroIndices(buf, x.RawRange(t*width, width)))
	}
	return activeList{idx: idx, start: start}
}

// row returns step t's active indices as a view into the list.
//
//snn:hotpath
func (a *activeList) row(t int) []int32 {
	return a.idx[a.start[t]:a.start[t+1]]
}

// attachLists gives the record its golden active lists: one per layer
// output and one for stimulus, which is tagged as the tensor they index.
func (r *Record) attachLists(stimulus *tensor.Tensor) {
	r.lists = make([]activeList, len(r.Layers))
	for li, lt := range r.Layers {
		r.lists[li] = newActiveList(lt, r.Steps)
	}
	r.stim = stimulus
	r.stimList = newActiveList(stimulus, r.Steps)
}

// replayList returns the golden active list of the input that feeds
// layer start at step t — layer start−1's spikes, or the stimulus's
// non-zero entries when start is 0 — and whether the record holds it.
// A stimulus list is lent only for the very tensor it was built from.
//
//snn:hotpath
func (r *Record) replayList(start, t int, stimulus *tensor.Tensor) ([]int32, bool) {
	if r == nil || r.lists == nil {
		return nil, false
	}
	if start > 0 {
		return r.lists[start-1].row(t), true
	}
	if r.stim != stimulus {
		return nil, false
	}
	return r.stimList.row(t), true
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

// OutputArgMax returns the rate-decoded class, tensor.ArgMax of
// OutputCounts, without allocating: each output column is summed in step
// order, as SumCols does, and the first column with the largest count
// wins a tie.
//
//snn:hotpath
func (r *Record) OutputArgMax() int {
	out := r.Output()
	n := out.Dim(1)
	data := out.RawRange(0, r.Steps*n)
	best, idx := math.Inf(-1), -1
	for j := 0; j < n; j++ {
		c := 0.0
		for t := j; t < len(data); t += n {
			c += data[t]
		}
		if c > best {
			best, idx = c, j
		}
	}
	return idx
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
