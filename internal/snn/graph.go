package snn

import (
	ag "github.com/repro/snntest/internal/autograd"
	"github.com/repro/snntest/internal/tensor"
)

// GraphResult holds the differentiable spike nodes of one RunGraph call:
// Spikes[ℓ][t] is the autograd node of layer ℓ's binary output frame at
// step t. Its Value tensors are exactly the spike trains the fast path
// would produce for the same stimulus.
type GraphResult struct {
	Steps  int
	Spikes [][]*ag.Node
}

// LayerCounts returns the differentiable per-neuron spike counts
// |O^{ℓi}| of layer ℓ, flattened to a vector node.
func (g *GraphResult) LayerCounts(layer int) *ag.Node {
	nodes := make([]*ag.Node, g.Steps)
	for t, s := range g.Spikes[layer] {
		nodes[t] = s
	}
	sum := ag.AddN(nodes...)
	return ag.Reshape(sum, sum.Value.Len())
}

// OutputLayer returns the index of the last layer.
func (g *GraphResult) OutputLayer() int { return len(g.Spikes) - 1 }

// ToRecordInto copies the forward spike values into a plain Record so
// that the fast-path metrics can be reused on graph results. When rec is
// non-nil and already shaped for (n, g.Steps) it is overwritten in place
// and returned; otherwise a fresh record is allocated. Iterating
// optimizers pass their previous record back in, so the per-iteration
// copy allocates nothing.
func (g *GraphResult) ToRecordInto(n *Network, rec *Record) *Record {
	if rec == nil || !rec.Matches(n, g.Steps) {
		rec = NewRecord(n, g.Steps)
	}
	for li := range g.Spikes {
		nn := n.Layers[li].NumNeurons()
		for t, node := range g.Spikes[li] {
			copy(rec.Layers[li].RawRange(t*nn, nn), node.Value.Data())
		}
	}
	return rec
}

// RunGraph simulates the network differentiably on per-step input nodes
// (each shaped like one input frame, typically the output of the
// Gumbel-Softmax → STE pipeline). Gradients of any scalar loss over the
// returned spike nodes flow back to the input through the fast-sigmoid
// surrogate, mirroring SLAYER's training backward pass.
//
// The network must be fault-free: test generation and training always run
// on the golden model.
func (n *Network) RunGraph(inputSteps []*ag.Node) *GraphResult {
	return n.runGraph(inputSteps, false)
}

// RunGraphFused is RunGraph with the membrane update built from the
// fused autograd LIF kernels (ag.OneMinusSpike, ag.LIFStep) instead of
// the composed Scale/Mul/Add chain. Spike values and every gradient are
// bit-identical to RunGraph — the fused ops replay the same float
// sequence — so the generation engine uses it as a drop-in graph
// builder; RunGraph remains the oracle form that internal/core's
// TestEquivGenerationGraph and FuzzRunGraphFused pin it against.
func (n *Network) RunGraphFused(inputSteps []*ag.Node) *GraphResult {
	return n.runGraph(inputSteps, true)
}

func (n *Network) runGraph(inputSteps []*ag.Node, fused bool) *GraphResult {
	if n.HasFaultOverrides() {
		// Hot-path invariant: GenerateContext and Train validate
		// fault-freedom once at entry before their per-iteration RunGraph
		// loops.
		failf("snn: RunGraph requires a fault-free network")
	}
	steps := len(inputSteps)
	if steps == 0 {
		failf("snn: RunGraph needs at least one input step")
	}
	type graphLayerState struct {
		u         *ag.Node
		lastSpike *ag.Node
		refrac    []int
		inRefrac  int // neurons with refrac > 0; gate is all-ones when 0
	}
	states := make([]*graphLayerState, len(n.Layers))
	for i, l := range n.Layers {
		states[i] = &graphLayerState{refrac: make([]int, l.NumNeurons())}
	}
	res := &GraphResult{Steps: steps, Spikes: make([][]*ag.Node, len(n.Layers))}
	for li := range n.Layers {
		res.Spikes[li] = make([]*ag.Node, steps)
	}
	for t := 0; t < steps; t++ {
		in := inputSteps[t]
		for li, l := range n.Layers {
			st := states[li]
			var lastOut *ag.Node
			if _, ok := l.Proj.(*RecurrentProj); ok {
				lastOut = st.lastSpike
			}
			cur := l.Proj.ForwardGraph(in, lastOut)

			// gate: 0 while refractory, 1 otherwise (non-differentiable,
			// computed from recorded binary spikes, hence constant). It
			// inherits the current's arena, if any: the gate is only read
			// within this graph's lifetime. The fused path elides an
			// all-ones gate outright — multiplying by exactly 1.0 is the
			// identity in every float, so the elision is bit-invisible.
			var gate *tensor.Tensor
			if !fused || st.inRefrac > 0 {
				gate = tensor.NewLike(cur.Value, cur.Value.Shape()...)
				gd := gate.Data()
				for i := range gd {
					if st.refrac[i] == 0 {
						gd[i] = 1
					}
				}
			}

			// u_t = gate ⊙ (leak·u_{t-1}·(1 − s_{t-1}) + I_t)
			var u *ag.Node
			switch {
			case st.u == nil && gate == nil:
				u = cur
			case st.u == nil:
				u = ag.Mul(cur, ag.Const(gate))
			case fused:
				u = ag.LIFStep(st.u, ag.OneMinusSpike(st.lastSpike), cur, gate, l.LIF.Leak)
			default:
				keep := ag.Scale(st.u, l.LIF.Leak)
				if st.lastSpike != nil {
					oneMinus := ag.AddScalar(ag.Neg(st.lastSpike), 1)
					keep = ag.Mul(keep, oneMinus)
				}
				u = ag.Mul(ag.Add(keep, cur), ag.Const(gate))
			}

			s := ag.Spike(u, l.LIF.Threshold, ag.SurrogateScale)

			// Refractory bookkeeping from the realized binary spikes.
			sv := s.Value.Data()
			st.inRefrac = 0
			for i := range st.refrac {
				if st.refrac[i] > 0 {
					st.refrac[i]--
				} else if sv[i] == 1 { //lint:ignore floateq realized spikes are exactly 0 or 1
					st.refrac[i] = l.LIF.Refractory
				}
				if st.refrac[i] > 0 {
					st.inRefrac++
				}
			}

			st.u = u
			st.lastSpike = s
			res.Spikes[li][t] = s
			in = s
		}
	}
	return res
}
