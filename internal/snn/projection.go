package snn

import (
	"fmt"

	ag "github.com/repro/snntest/internal/autograd"
	"github.com/repro/snntest/internal/tensor"
)

// Projection computes the synaptic current entering a layer's neurons from
// the presynaptic spike tensor (and, for recurrent projections, the
// layer's own previous output). Implementations provide both a plain
// tensor path and a differentiable graph path with identical semantics.
type Projection interface {
	// Kind is a short stable identifier ("dense", "conv", "pool", "recurrent").
	Kind() string
	// InShape and OutShape are the spike-tensor shapes consumed/produced
	// per time step.
	InShape() []int
	OutShape() []int
	// NumSynapses counts the independently faultable weights. Convolution
	// weights are shared across positions in hardware, so each kernel
	// element counts once (the convention of per-parameter fault
	// injection); dense and recurrent weights count each connection.
	NumSynapses() int
	// Weights returns the mutable weight tensor, or nil if the projection
	// has no trainable/faultable weights (sum pooling).
	Weights() *tensor.Tensor
	// Forward computes the synaptic current from input spikes in and the
	// layer's previous output spikes lastOut (used only by recurrent
	// projections; may be nil otherwise).
	Forward(in, lastOut *tensor.Tensor) *tensor.Tensor
	// ForwardGraph is the differentiable equivalent of Forward.
	ForwardGraph(in, lastOut *ag.Node) *ag.Node
	// FanIn returns the effective fan-in weight matrix [numNeurons × fanIn]
	// and, given presynaptic spike counts, the matching contribution input
	// vector, for the paper's synapse-uniformity loss L4. Projections for
	// which L4 is not defined (pooling) return nil.
	FanIn() *tensor.Tensor
	// ContributionCounts maps presynaptic spike counts (shape InShape
	// flattened; plus own counts for recurrent) to the vector matching
	// FanIn's columns. Returns nil when FanIn is nil.
	ContributionCounts(preCounts, ownCounts *ag.Node) *ag.Node
	// ParamLeaves switches the projection into training mode on first
	// call: ForwardGraph thereafter routes through autograd leaf nodes
	// wrapping the weight tensors, so Backward accumulates weight
	// gradients into the returned leaves. Weightless projections return
	// nil and stay in inference mode.
	ParamLeaves() []*ag.Node
	// Clone deep-copies the projection's weight storage. The clone is
	// always in inference mode (training leaves are not carried over).
	Clone() Projection
}

// weightNode wraps a weight tensor for the graph path: as a gradient leaf
// when training mode is enabled, as a constant otherwise.
func weightNode(leaf **ag.Node, w *tensor.Tensor) *ag.Node {
	if *leaf != nil {
		return *leaf
	}
	return ag.Const(w)
}

// ---------------------------------------------------------------------------
// Dense projection

// DenseProj is a fully connected projection: current = W·in.
type DenseProj struct {
	W     *tensor.Tensor // [out, in]
	out   int
	in    int
	wLeaf *ag.Node
	// inShape/outShape are cached so shape accessors stay allocation-free
	// (NumNeurons runs on the simulation hot path).
	inShape, outShape []int
}

// NewDenseProj creates a dense projection with the given weight matrix.
func NewDenseProj(w *tensor.Tensor) (*DenseProj, error) {
	if w.Rank() != 2 {
		return nil, fmt.Errorf("snn: dense weights must be rank 2, got %v", w.Shape())
	}
	p := &DenseProj{W: w, out: w.Dim(0), in: w.Dim(1)}
	p.inShape, p.outShape = []int{p.in}, []int{p.out}
	return p, nil
}

func (p *DenseProj) Kind() string            { return "dense" }
func (p *DenseProj) InShape() []int          { return p.inShape }
func (p *DenseProj) OutShape() []int         { return p.outShape }
func (p *DenseProj) NumSynapses() int        { return p.W.Len() }
func (p *DenseProj) Weights() *tensor.Tensor { return p.W }

func (p *DenseProj) Forward(in, _ *tensor.Tensor) *tensor.Tensor {
	return tensor.MatVec(p.W, in.Reshape(p.in))
}

func (p *DenseProj) ForwardGraph(in, _ *ag.Node) *ag.Node {
	return ag.MatVec(weightNode(&p.wLeaf, p.W), ag.Reshape(in, p.in))
}

func (p *DenseProj) ParamLeaves() []*ag.Node {
	if p.wLeaf == nil {
		p.wLeaf = ag.Leaf(p.W)
	}
	return []*ag.Node{p.wLeaf}
}

func (p *DenseProj) Clone() Projection {
	c := &DenseProj{W: p.W.Clone(), out: p.out, in: p.in}
	c.inShape, c.outShape = []int{c.in}, []int{c.out}
	return c
}

func (p *DenseProj) FanIn() *tensor.Tensor { return p.W }

func (p *DenseProj) ContributionCounts(preCounts, _ *ag.Node) *ag.Node {
	return ag.Reshape(preCounts, p.in)
}

// ---------------------------------------------------------------------------
// Convolutional projection

// ConvProj is a 2-D convolutional projection over [C,H,W] spike frames.
type ConvProj struct {
	K        *tensor.Tensor // [outC, inC, kH, kW]
	Spec     tensor.ConvSpec
	inShape  []int
	outShape []int
	kLeaf    *ag.Node
}

// NewConvProj creates a convolutional projection for the given input shape.
func NewConvProj(kernel *tensor.Tensor, inShape []int, spec tensor.ConvSpec) (*ConvProj, error) {
	if kernel.Rank() != 4 || len(inShape) != 3 {
		return nil, fmt.Errorf("snn: conv projection requires rank-4 kernel and [C,H,W] input, got %v and %v", kernel.Shape(), inShape)
	}
	if kernel.Dim(1) != inShape[0] {
		return nil, fmt.Errorf("snn: conv kernel channels %d do not match input channels %d", kernel.Dim(1), inShape[0])
	}
	oh := tensor.ConvOutDim(inShape[1], kernel.Dim(2), spec.Stride, spec.Pad)
	ow := tensor.ConvOutDim(inShape[2], kernel.Dim(3), spec.Stride, spec.Pad)
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("snn: conv projection produces empty output for input %v kernel %v", inShape, kernel.Shape())
	}
	return &ConvProj{
		K:        kernel,
		Spec:     spec,
		inShape:  append([]int(nil), inShape...),
		outShape: []int{kernel.Dim(0), oh, ow},
	}, nil
}

func (p *ConvProj) Kind() string            { return "conv" }
func (p *ConvProj) InShape() []int          { return p.inShape }
func (p *ConvProj) OutShape() []int         { return p.outShape }
func (p *ConvProj) NumSynapses() int        { return p.K.Len() }
func (p *ConvProj) Weights() *tensor.Tensor { return p.K }

func (p *ConvProj) Forward(in, _ *tensor.Tensor) *tensor.Tensor {
	return tensor.Conv2D(in.Reshape(p.inShape...), p.K, p.Spec)
}

func (p *ConvProj) ForwardGraph(in, _ *ag.Node) *ag.Node {
	return ag.Conv2D(ag.Reshape(in, p.inShape...), weightNode(&p.kLeaf, p.K), p.Spec)
}

func (p *ConvProj) ParamLeaves() []*ag.Node {
	if p.kLeaf == nil {
		p.kLeaf = ag.Leaf(p.K)
	}
	return []*ag.Node{p.kLeaf}
}

func (p *ConvProj) Clone() Projection {
	return &ConvProj{
		K:        p.K.Clone(),
		Spec:     p.Spec,
		inShape:  append([]int(nil), p.inShape...),
		outShape: append([]int(nil), p.outShape...),
	}
}

// FanIn views the kernel as [outC, inC·kH·kW]: each output channel's
// neurons share one fan-in weight vector, matching the per-parameter
// synapse fault convention.
func (p *ConvProj) FanIn() *tensor.Tensor {
	return p.K.Reshape(p.K.Dim(0), p.K.Dim(1)*p.K.Dim(2)*p.K.Dim(3))
}

// ContributionCounts approximates each kernel element's traffic by the
// mean spike count of its presynaptic channel, replicated across the
// kernel window (exact per-position counts would need one entry per
// connection, which explodes for shared conv weights).
func (p *ConvProj) ContributionCounts(preCounts, _ *ag.Node) *ag.Node {
	inC := p.inShape[0]
	per := p.inShape[1] * p.inShape[2]
	kk := p.K.Dim(2) * p.K.Dim(3)
	// Mean count per channel: pool spatial positions with a constant
	// averaging matrix so gradients flow back to every position.
	m := tensor.New(inC*kk, inC*per)
	for c := 0; c < inC; c++ {
		for k := 0; k < kk; k++ {
			row := c*kk + k
			for j := 0; j < per; j++ {
				m.Set(1/float64(per), row, c*per+j)
			}
		}
	}
	return ag.MatVec(ag.Const(m), ag.Reshape(preCounts, inC*per))
}

// ---------------------------------------------------------------------------
// Sum-pooling projection

// PoolProj aggregates non-overlapping k×k windows with a fixed synaptic
// weight. The pooled units are LIF neurons (as in SLAYER's spiking
// pooling layers), so they appear in the neuron fault universe, but the
// fixed weight is not a faultable synapse.
type PoolProj struct {
	KSize    int
	Weight   float64
	inShape  []int
	outShape []int
}

// NewPoolProj creates a k×k sum-pooling projection with the given fixed
// synapse weight.
func NewPoolProj(inShape []int, k int, weight float64) (*PoolProj, error) {
	if len(inShape) != 3 {
		return nil, fmt.Errorf("snn: pool projection requires [C,H,W] input, got %v", inShape)
	}
	if k <= 0 || inShape[1]%k != 0 || inShape[2]%k != 0 {
		return nil, fmt.Errorf("snn: pool window %d does not divide input %v", k, inShape)
	}
	return &PoolProj{
		KSize:    k,
		Weight:   weight,
		inShape:  append([]int(nil), inShape...),
		outShape: []int{inShape[0], inShape[1] / k, inShape[2] / k},
	}, nil
}

func (p *PoolProj) Kind() string            { return "pool" }
func (p *PoolProj) InShape() []int          { return p.inShape }
func (p *PoolProj) OutShape() []int         { return p.outShape }
func (p *PoolProj) NumSynapses() int        { return 0 }
func (p *PoolProj) Weights() *tensor.Tensor { return nil }

func (p *PoolProj) Forward(in, _ *tensor.Tensor) *tensor.Tensor {
	out := tensor.SumPool2D(in.Reshape(p.inShape...), p.KSize)
	tensor.ScaleInPlace(out, p.Weight)
	return out
}

func (p *PoolProj) ForwardGraph(in, _ *ag.Node) *ag.Node {
	return ag.Scale(ag.SumPool2D(ag.Reshape(in, p.inShape...), p.KSize), p.Weight)
}

func (p *PoolProj) Clone() Projection {
	cp := *p
	return &cp
}

func (p *PoolProj) FanIn() *tensor.Tensor                     { return nil }
func (p *PoolProj) ContributionCounts(_, _ *ag.Node) *ag.Node { return nil }
func (p *PoolProj) ParamLeaves() []*ag.Node                   { return nil }

// ---------------------------------------------------------------------------
// Recurrent projection

// RecurrentProj combines a feedforward input matrix with a recurrent
// matrix applied to the layer's own previous spikes:
// current = W·in + R·lastOut.
type RecurrentProj struct {
	W     *tensor.Tensor // [out, in]
	R     *tensor.Tensor // [out, out]
	wLeaf *ag.Node
	rLeaf *ag.Node
	// inShape/outShape are cached so shape accessors stay allocation-free
	// (NumNeurons runs on the simulation hot path).
	inShape, outShape []int
}

// NewRecurrentProj creates a recurrent projection from feedforward and
// recurrent weight matrices.
func NewRecurrentProj(w, r *tensor.Tensor) (*RecurrentProj, error) {
	if w.Rank() != 2 || r.Rank() != 2 || r.Dim(0) != r.Dim(1) || r.Dim(0) != w.Dim(0) {
		return nil, fmt.Errorf("snn: recurrent projection shapes invalid: W %v, R %v", w.Shape(), r.Shape())
	}
	return &RecurrentProj{W: w, R: r, inShape: []int{w.Dim(1)}, outShape: []int{w.Dim(0)}}, nil
}

func (p *RecurrentProj) Kind() string    { return "recurrent" }
func (p *RecurrentProj) InShape() []int  { return p.inShape }
func (p *RecurrentProj) OutShape() []int { return p.outShape }

// NumSynapses counts both feedforward and recurrent connections.
func (p *RecurrentProj) NumSynapses() int { return p.W.Len() + p.R.Len() }

// Weights returns the feedforward matrix W; the recurrent matrix is the
// R field. Fault enumeration indexes the two ranges contiguously:
// [0, len(W)) then [len(W), len(W)+len(R)).
func (p *RecurrentProj) Weights() *tensor.Tensor { return p.W }

func (p *RecurrentProj) Forward(in, lastOut *tensor.Tensor) *tensor.Tensor {
	cur := tensor.MatVec(p.W, in.Reshape(p.W.Dim(1)))
	if lastOut != nil {
		tensor.AddInPlace(cur, tensor.MatVec(p.R, lastOut.Reshape(p.R.Dim(1))))
	}
	return cur
}

func (p *RecurrentProj) ForwardGraph(in, lastOut *ag.Node) *ag.Node {
	cur := ag.MatVec(weightNode(&p.wLeaf, p.W), ag.Reshape(in, p.W.Dim(1)))
	if lastOut != nil {
		cur = ag.Add(cur, ag.MatVec(weightNode(&p.rLeaf, p.R), ag.Reshape(lastOut, p.R.Dim(1))))
	}
	return cur
}

func (p *RecurrentProj) ParamLeaves() []*ag.Node {
	if p.wLeaf == nil {
		p.wLeaf = ag.Leaf(p.W)
		p.rLeaf = ag.Leaf(p.R)
	}
	return []*ag.Node{p.wLeaf, p.rLeaf}
}

func (p *RecurrentProj) Clone() Projection {
	w := p.W.Clone()
	return &RecurrentProj{W: w, R: p.R.Clone(), inShape: []int{w.Dim(1)}, outShape: []int{w.Dim(0)}}
}

// FanIn concatenates W and R column-wise: each neuron's fan-in covers its
// feedforward and recurrent synapses.
func (p *RecurrentProj) FanIn() *tensor.Tensor {
	out, in, n := p.W.Dim(0), p.W.Dim(1), p.R.Dim(1)
	m := tensor.New(out, in+n)
	for i := 0; i < out; i++ {
		for j := 0; j < in; j++ {
			m.Set(p.W.At(i, j), i, j)
		}
		for j := 0; j < n; j++ {
			m.Set(p.R.At(i, j), i, in+j)
		}
	}
	return m
}

func (p *RecurrentProj) ContributionCounts(preCounts, ownCounts *ag.Node) *ag.Node {
	in, n := p.W.Dim(1), p.R.Dim(1)
	// Concatenate [preCounts ; ownCounts] with constant selection matrices.
	sel := tensor.New(in+n, in)
	for j := 0; j < in; j++ {
		sel.Set(1, j, j)
	}
	top := ag.MatVec(ag.Const(sel), ag.Reshape(preCounts, in))
	if ownCounts == nil {
		return top
	}
	sel2 := tensor.New(in+n, n)
	for j := 0; j < n; j++ {
		sel2.Set(1, in+j, j)
	}
	return ag.Add(top, ag.MatVec(ag.Const(sel2), ag.Reshape(ownCounts, n)))
}
