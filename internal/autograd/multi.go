package autograd

import "github.com/repro/snntest/internal/tensor"

// MultiOp is one differentiable operation with many outputs: a kernel
// that computes a whole subgraph in a single forward pass and
// differentiates it in a single backward pass (snn's BPTT kernel) instead
// of recording one tape node per elementary op.
//
// Its outputs are ordinary nodes that downstream ops consume. Backward
// runs the op's backward exactly once, after every consumer of every
// output has accumulated into that output's Grad and before any parent's
// backward, so the backward reads each output's complete cotangent and
// accumulates into the parents' Grad itself.
//
// The op owns its output nodes and reuses them: Bind starts a new forward
// pass, after which the nodes of the previous pass must no longer be
// used. Reusing them is what lets a kernel run pass after pass without
// allocating. A MultiOp belongs to one goroutine.
type MultiOp struct {
	hub  Node   // the op proper: parents are the inputs, backward the kernel's
	outs []Node // output views, each with hub as its only parent
	// blank is the current pass's output before its value is set: hub as
	// the only parent, the hub's gradient requirement.
	blank Node
}

// NewMultiOp returns an op whose backward calls back once per Backward
// that reaches any of its outputs.
func NewMultiOp(back func()) *MultiOp {
	m := &MultiOp{}
	m.hub.Value = tensor.Scalar(0)
	m.hub.backward = func(*Node) { back() }
	m.blank.parents = []*Node{&m.hub}
	return m
}

// Bind starts a forward pass of the op over parents with n outputs. The
// gradient requirement of the outputs is inherited from parents; the
// slice is retained until the next Bind.
func (m *MultiOp) Bind(parents []*Node, n int) {
	m.hub.parents = parents
	m.hub.requiresGrad = false
	for _, p := range parents {
		if p != nil && p.requiresGrad {
			m.hub.requiresGrad = true
			break
		}
	}
	m.blank.requiresGrad = m.hub.requiresGrad
	if cap(m.outs) < n {
		m.outs = make([]Node, n)
	}
	m.outs = m.outs[:n]
}

// Output sets output i of the current pass to view value, with grad (of
// the same length) as its gradient buffer, and returns its node. grad is
// zeroed here when the output requires gradients and left untouched
// otherwise; both tensors stay owned by the caller.
//
//snn:hotpath
func (m *MultiOp) Output(i int, value, grad *tensor.Tensor) *Node {
	n := &m.outs[i]
	*n = m.blank
	n.Value = value
	if n.requiresGrad {
		grad.Zero()
		n.Grad = grad
	}
	return n
}

// Reached reports, while the op's backward runs, whether the Backward in
// progress reached output i from its root, and if so the output's rank:
// its position in that traversal's topological order. Outputs are
// leaves below the op, so ranks order them exactly as the traversal
// first reached them — the order in which a composed graph in the op's
// place would have expanded the subgraphs behind them, which is what a
// kernel needs to replay that graph's gradient-accumulation order.
//
//snn:hotpath
func (m *MultiOp) Reached(i int) (int, bool) {
	n := &m.outs[i]
	return n.rank, n.visit == m.hub.visit
}
