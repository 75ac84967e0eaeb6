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
// The graph is composed from elementary autograd ops, one tape node per
// op per (layer, step). It is the oracle RunGraphFused is pinned against
// (internal/core's TestEquivGenerationGraph and FuzzRunGraphFused) and,
// with the projections in training mode, the path training runs on.
//
// The network must be fault-free: test generation and training always run
// on the golden model.
func (n *Network) RunGraph(inputSteps []*ag.Node) *GraphResult {
	steps := n.checkGraphInput(inputSteps)
	type graphLayerState struct {
		u         *ag.Node
		lastSpike *ag.Node
		refrac    []int
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
			// computed from recorded binary spikes, hence constant).
			gate := tensor.NewLike(cur.Value, cur.Value.Shape()...)
			gd := gate.Data()
			for i := range gd {
				if st.refrac[i] == 0 {
					gd[i] = 1
				}
			}

			// u_t = gate ⊙ (leak·u_{t-1}·(1 − s_{t-1}) + I_t)
			var u *ag.Node
			if st.u == nil {
				u = ag.Mul(cur, ag.Const(gate))
			} else {
				keep := ag.Scale(st.u, l.LIF.Leak)
				oneMinus := ag.AddScalar(ag.Neg(st.lastSpike), 1)
				keep = ag.Mul(keep, oneMinus)
				u = ag.Mul(ag.Add(keep, cur), ag.Const(gate))
			}

			s := ag.Spike(u, l.LIF.Threshold, ag.SurrogateScale)

			// Refractory bookkeeping from the realized binary spikes.
			sv := s.Value.Data()
			for i := range st.refrac {
				if st.refrac[i] > 0 {
					st.refrac[i]--
				} else if sv[i] == 1 { //lint:ignore floateq realized spikes are exactly 0 or 1
					st.refrac[i] = l.LIF.Refractory
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

// checkGraphInput enforces the graph paths' preconditions and returns the
// step count. Hot-path invariant: GenerateContext and Train validate
// fault-freedom once at entry before their per-iteration graph loops.
func (n *Network) checkGraphInput(inputSteps []*ag.Node) int {
	if n.HasFaultOverrides() {
		failf("snn: RunGraph requires a fault-free network")
	}
	if len(inputSteps) == 0 {
		failf("snn: RunGraph needs at least one input step")
	}
	return len(inputSteps)
}
