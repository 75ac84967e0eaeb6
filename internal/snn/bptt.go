package snn

import (
	"math"
	"slices"

	ag "github.com/repro/snntest/internal/autograd"
	"github.com/repro/snntest/internal/tensor"
)

// RunGraphFused is RunGraph as one differentiable op: a single
// event-driven forward pass over the input frames (the fused layer
// kernels of fused.go) records every layer's spikes, membrane potentials
// and refractory gates per step, and a single backward pass runs the
// hand-derived LIF adjoint backward in time, layer by layer, straight
// into the input frames' gradients — no tape node and no gradient tensor
// per (layer, step) beyond the spike nodes the losses consume. Spike
// values and every gradient are bit-identical to RunGraph's (see
// bpttKernel for the accumulation-order argument), so the generation
// engine uses it as a drop-in graph builder.
//
// The kernel and its buffers live on the network and are reused, so a
// pass allocates nothing once the network has run at its step count: the
// returned result and its spike nodes are valid until the next
// RunGraphFused call on this network, and calls on one network must not
// overlap — clone the network per goroutine, as the generation engine
// does. Spike values inherit the input frames' arena, if any, so loss
// graphs built on them allocate from it.
func (n *Network) RunGraphFused(inputSteps []*ag.Node) *GraphResult {
	n.checkGraphInput(inputSteps)
	if n.bptt == nil {
		n.bptt = newBPTTKernel(n)
	}
	return n.bptt.forward(inputSteps)
}

// bpttKernel is RunGraphFused's op.
//
// The forward pass is Scratch's fused pass on a fault-free network, so
// its spikes and membrane potentials are those of the reference path,
// which RunGraph's composed ops reproduce value for value.
//
// The backward pass evaluates, per (layer, step) block, the same float
// expressions the composed graph's op closures evaluate, and adds them
// into each cotangent in the order the composed graph's reverse
// topological order would. Per block (l, t), with g the spike cotangent,
// U the membrane cotangent, C = U·gate the current cotangent:
//
//   - the surrogate: U = U_keep + g/(d·d), d = 1 + 10·|u − θ|, where
//     U_keep is the leak term block (l, t+1) contributed;
//   - the recurrent term Rᵀ·C into s(l, t−1), in MatVecT order;
//   - the input term Wᵀ·C (dense, recurrent), the conv transpose
//     (tensor.Conv2DBackwardInputInto) or the pool scatter C·w into
//     s(l−1, t), or into input frame t for the first layer, each summed
//     into a zeroed buffer first, as the composed op's gradient tensor is;
//   - the keep chain: −(C·(u(l,t−1)·leak)) into s(l, t−1) and
//     (C·(1−s(l,t−1)))·leak as U_keep of block (l, t−1), where the
//     composed graph adds it into a +0 gradient first.
//
// Every accumulator starts at +0 and so never holds −0: adding a ±0 term
// leaves it unchanged, which is why zero-skips are exact, and why the
// first two terms into any accumulator commute. The order that matters
// is therefore the order of blocks. The composed graph's depth-first
// topological sort expands block (l, t) through its keep chain — block
// (l, t−1) — before its current — block (l−1, t) — and reaches the
// network first wherever the loss graph first reaches a spike node. The
// backward reconstructs that order from the ranks the traversal gave the
// spike nodes (ag.MultiOp.Reached) by replaying the same depth-first
// expansion over blocks, then runs the blocks in reverse. Loss terms
// arrive in the spike nodes' Grad before the op's backward runs; this
// matches the composed order when the loss graph reaches the network as
// the generation engine's roots do: through the output layer first
// (stage 1, calibration — every internal term follows the losses), or
// layer by layer from the input (stage 2's L5-then-mismatch root — one
// internal term, the next layer's current, precedes each hidden spike's
// single L5 term, and the output spikes take one keep term before their
// single mismatch term; two terms into +0 commute).
type bpttKernel struct {
	net    *Network
	sc     *Scratch // per-layer LIF state, fused kernels, input active list
	op     *ag.MultiOp
	res    GraphResult
	steps  int
	layers []bpttLayer
	inputs []*ag.Node // the current pass's input frames

	// Backward schedule scratch, sized layers·steps: the reached spike
	// nodes' ranks packed with their block ids, the block marks, the
	// depth-first stack and the block order.
	keys  []uint64
	mark  []bool
	stack []int32
	order []int32
	// tmp receives one transpose product before it is added into its
	// target cotangent; sized to the widest layer input.
	tmp []float64
}

// bpttLayer is one layer's recorded forward pass and backward scratch.
type bpttLayer struct {
	nn    int
	shape []int
	// [steps·nn] rows per step: spikes, their cotangents, the membrane
	// potential after each step and the refractory gate before it (1, or
	// 0 while refractory).
	spikes, grads, u, gate []float64
	// Per-step views of spikes and grads: the spike nodes' Value and Grad.
	sT, gT []*tensor.Tensor
	ug     []float64 // [nn] U_keep of the layer's next block
	cg     []float64 // [nn] current cotangent of the block in flight
}

// newBPTTKernel sizes the kernel's step-independent state for n.
func newBPTTKernel(n *Network) *bpttKernel {
	k := &bpttKernel{net: n, sc: n.NewScratch(), layers: make([]bpttLayer, len(n.Layers))}
	k.op = ag.NewMultiOp(k.backward)
	k.res.Spikes = make([][]*ag.Node, len(n.Layers))
	widest := n.InputLen()
	for li, l := range n.Layers {
		nn := l.NumNeurons()
		widest = max(widest, nn)
		k.layers[li] = bpttLayer{nn: nn, shape: l.Proj.OutShape(), ug: make([]float64, nn), cg: make([]float64, nn)}
	}
	k.tmp = make([]float64, widest)
	return k
}

// resize reallocates the per-step buffers for a new step count.
func (k *bpttKernel) resize(steps int) {
	k.steps = steps
	k.res.Steps = steps
	for li := range k.layers {
		L := &k.layers[li]
		n := steps * L.nn
		L.spikes, L.grads = make([]float64, n), make([]float64, n)
		L.u, L.gate = make([]float64, n), make([]float64, n)
		L.sT, L.gT = make([]*tensor.Tensor, steps), make([]*tensor.Tensor, steps)
		for t := range L.sT {
			L.sT[t] = tensor.FromSlice(L.spikes[t*L.nn:(t+1)*L.nn], L.shape...)
			L.gT[t] = tensor.FromSlice(L.grads[t*L.nn:(t+1)*L.nn], L.shape...)
		}
		k.res.Spikes[li] = make([]*ag.Node, steps)
	}
	blocks := len(k.layers) * steps
	k.keys = make([]uint64, blocks)
	k.mark = make([]bool, blocks)
	k.stack = make([]int32, blocks)
	k.order = make([]int32, blocks)
}

// forward runs the recorded forward pass and binds the op's outputs.
func (k *bpttKernel) forward(in []*ag.Node) *GraphResult {
	if len(in) != k.steps {
		k.resize(len(in))
	}
	for t, x := range in {
		if x.Value.Len() != k.sc.frame {
			failf("snn: RunGraph input step %d has %d elements, want %d", t, x.Value.Len(), k.sc.frame)
		}
	}
	k.inputs = in
	k.op.Bind(in, len(k.layers)*k.steps)
	for li, l := range k.net.Layers {
		k.sc.states[li].reset()
		k.sc.kernels[li].bind(l)
	}
	for t := range in {
		k.step(t)
	}
	k.bindOutputs(in[0].Value.Arena())
	return &k.res
}

// step advances every layer by time step t, recording each layer's gate
// before the update and its membrane potential after it.
//
//snn:hotpath
func (k *bpttKernel) step(t int) {
	x := k.inputs[t].Value.Data()
	act := tensor.NonZeroIndices(k.sc.act, x)
	for li, l := range k.net.Layers {
		L := &k.layers[li]
		st := k.sc.states[li]
		row := t * L.nn
		gate := L.gate[row : row+L.nn]
		for i, r := range st.refrac {
			g := 1.0
			if r > 0 {
				g = 0
			}
			gate[i] = g
		}
		out := L.spikes[row : row+L.nn]
		k.sc.kernels[li].step(l, st, x, act, out)
		copy(L.u[row:row+L.nn], st.u)
		x, act = out, st.spikes()
	}
}

// bindOutputs makes the recorded spike rows the op's output nodes, their
// values tagged with the inputs' arena (nil untags them).
//
//snn:hotpath
func (k *bpttKernel) bindOutputs(ar *tensor.Arena) {
	for li := range k.layers {
		L := &k.layers[li]
		for t, v := range L.sT {
			ar.Adopt(v)
			k.res.Spikes[li][t] = k.op.Output(li*k.steps+t, v, L.gT[t])
		}
	}
}

// backward is the op's backward: it orders the blocks the traversal
// reached and runs them in reverse.
//
//snn:hotpath
func (k *bpttKernel) backward() {
	n := 0
	for id := range k.mark {
		if r, ok := k.op.Reached(id); ok {
			k.keys[n] = uint64(r)<<32 | uint64(id)
			n++
		}
	}
	keys := k.keys[:n]
	slices.Sort(keys)
	order := k.schedule(keys)
	for li := range k.layers {
		clear(k.layers[li].ug)
	}
	for i := len(order) - 1; i >= 0; i-- {
		id := int(order[i])
		k.block(id/k.steps, id%k.steps)
	}
}

// schedule replays the composed graph's depth-first expansion over blocks
// — block id = layer·steps + step — starting from each reached spike node
// in rank order, and returns the blocks in its post-order: a block after
// its keep-chain block (same layer, previous step), which comes before
// its current block (previous layer, same step).
//
//snn:hotpath
func (k *bpttKernel) schedule(keys []uint64) []int32 {
	steps := int32(k.steps)
	clear(k.mark)
	stack, order := k.stack, k.order
	n := 0
	for _, key := range keys {
		root := int32(key & math.MaxUint32)
		if k.mark[root] {
			continue
		}
		k.mark[root] = true
		stack[0] = root << 2
		sp := 1
		for sp > 0 {
			e := stack[sp-1]
			id := e >> 2
			next := int32(-1)
			switch e & 3 {
			case 0:
				if id%steps > 0 {
					next = id - 1
				}
			case 1:
				if id >= steps {
					next = id - steps
				}
			default:
				sp--
				order[n] = id
				n++
				continue
			}
			stack[sp-1]++
			if next >= 0 && !k.mark[next] {
				k.mark[next] = true
				stack[sp] = next << 2
				sp++
			}
		}
	}
	return order[:n]
}

// block runs the adjoint of layer li's step t (see bpttKernel).
//
//snn:hotpath
func (k *bpttKernel) block(li, t int) {
	l := k.net.Layers[li]
	L := &k.layers[li]
	nn, row := L.nn, t*L.nn
	th := l.LIF.Threshold
	gs, u, gate := L.grads[row:row+nn], L.u[row:row+nn], L.gate[row:row+nn]
	cg := L.cg
	for i, g := range gs {
		d := 1 + ag.SurrogateScale*math.Abs(u[i]-th)
		cg[i] = (L.ug[i] + g/(d*d)) * gate[i]
	}

	var prevGrads []float64
	if t > 0 {
		prevGrads = L.grads[row-nn : row]
	}
	if p, ok := l.Proj.(*RecurrentProj); ok && t > 0 {
		tensor.MatVecTInto(k.tmp[:nn], p.R, cg)
		addInto(prevGrads, k.tmp[:nn])
	}
	k.inputTerm(li, t, cg)
	if t == 0 {
		return
	}
	leak := l.LIF.Leak
	prevU, prevS := L.u[row-nn:row], L.spikes[row-nn:row]
	for i, c := range cg {
		prevGrads[i] -= c * (prevU[i] * leak)
		L.ug[i] = (c * (1 - prevS[i])) * leak
	}
}

// inputTerm adds the current cotangent cg of layer li at step t through
// the layer's projection into its input's cotangent: the previous layer's
// spike row, or input frame t (skipped when the frame takes no gradient).
//
//snn:hotpath
func (k *bpttKernel) inputTerm(li, t int, cg []float64) {
	var dst []float64
	if li == 0 {
		g := k.inputs[t].Grad
		if g == nil {
			return
		}
		dst = g.Data()
	} else {
		nn := k.layers[li-1].nn
		dst = k.layers[li-1].grads[t*nn : (t+1)*nn]
	}
	kern := k.sc.kernels[li]
	tmp := k.tmp[:len(dst)]
	switch p := k.net.Layers[li].Proj.(type) {
	case *DenseProj:
		tensor.MatVecTInto(tmp, p.W, cg)
	case *RecurrentProj:
		tensor.MatVecTInto(tmp, p.W, cg)
	case *ConvProj:
		tensor.Conv2DBackwardInputInto(tmp, cg, p.K, p.inShape, p.Spec)
	case *PoolProj:
		// Windows do not overlap, so each input takes exactly one term.
		var rc rasterCursor
		for j := range dst {
			ix := rc.seek(j, kern.inH, kern.inW)
			dst[j] += cg[(rc.c*kern.oh+int(kern.rows.o[rc.y]))*kern.ow+int(kern.cols.o[ix])] * p.Weight
		}
		return
	}
	addInto(dst, tmp)
}

// addInto adds src into dst elementwise.
//
//snn:hotpath
func addInto(dst, src []float64) {
	for i, v := range src {
		dst[i] += v
	}
}
