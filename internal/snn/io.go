package snn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"
)

// weightsFile is the serialized form of a network's trainable state: one
// flat float64 slice per weight tensor, in layer order (recurrent layers
// contribute W then R).
type weightsFile struct {
	Name    string
	Tensors [][]float64
}

// weightTensor is one weight tensor's storage with what error messages
// name it by: its layer and W (feedforward or kernel) or R (recurrent).
type weightTensor struct {
	layer, role string
	data        []float64
}

func (t weightTensor) name() string { return fmt.Sprintf("layer %q %s", t.layer, t.role) }

// weightTensors lists the network's weight tensors in canonical order.
func (n *Network) weightTensors() []weightTensor {
	var out []weightTensor
	for _, l := range n.Layers {
		if w := l.Proj.Weights(); w != nil {
			out = append(out, weightTensor{l.Name, "W", w.Data()})
		}
		if r, ok := l.Proj.(*RecurrentProj); ok {
			out = append(out, weightTensor{l.Name, "R", r.R.Data()})
		}
	}
	return out
}

// checkFinite returns an error naming t and the index of the first NaN
// or ±Inf entry of data, the values destined for t.
func checkFinite(t weightTensor, data []float64) error {
	for i, v := range data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("snn: %s[%d] is %v; weights must be finite", t.name(), i, v)
		}
	}
	return nil
}

// CheckFiniteWeights returns an error naming the tensor and index of the
// first NaN or ±Inf synapse weight. The event-driven kernels skip silent
// inputs, which matches the reference path's w·0 terms only when w is
// finite, so weights that arrive from outside the fault models are
// checked against this precondition before they are simulated.
func (n *Network) CheckFiniteWeights() error {
	for _, t := range n.weightTensors() {
		if err := checkFinite(t, t.data); err != nil {
			return err
		}
	}
	return nil
}

// SaveWeights writes the network's weights to w with encoding/gob.
func (n *Network) SaveWeights(w io.Writer) error {
	f := weightsFile{Name: n.Name}
	for _, t := range n.weightTensors() {
		f.Tensors = append(f.Tensors, t.data)
	}
	return gob.NewEncoder(w).Encode(&f)
}

// LoadWeights reads weights previously written by SaveWeights into the
// network, which must have the identical architecture. Every weight must
// be finite (see CheckFiniteWeights). A rejected file leaves the
// network's weights untouched.
func (n *Network) LoadWeights(r io.Reader) error {
	var f weightsFile
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		return fmt.Errorf("snn: decoding weights: %w", err)
	}
	ts := n.weightTensors()
	if len(f.Tensors) != len(ts) {
		return fmt.Errorf("snn: weight file has %d tensors, network %q expects %d", len(f.Tensors), n.Name, len(ts))
	}
	for i, dst := range ts {
		if len(f.Tensors[i]) != len(dst.data) {
			return fmt.Errorf("snn: weight tensor %d (%s) has %d elements, expected %d", i, dst.name(), len(f.Tensors[i]), len(dst.data))
		}
		if err := checkFinite(dst, f.Tensors[i]); err != nil {
			return err
		}
	}
	for i, dst := range ts {
		copy(dst.data, f.Tensors[i])
	}
	return nil
}

// SaveWeightsFile writes the network's weights to the named file.
func (n *Network) SaveWeightsFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := n.SaveWeights(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadWeightsFile reads weights from the named file.
func (n *Network) LoadWeightsFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return n.LoadWeights(f)
}
