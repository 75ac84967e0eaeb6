// Package autograd implements a small tape-based reverse-mode automatic
// differentiation engine over tensor.Tensor values.
//
// It exists to support two gradient consumers in this repository:
//
//   - training spiking networks with surrogate-gradient backpropagation
//     through time (gradients with respect to layer weights), and
//   - the paper's test-generation algorithm, which optimizes the binary
//     network *input* through a Gumbel-Softmax relaxation and a
//     straight-through estimator (gradients with respect to the input).
//
// Graphs are built eagerly: every operation returns a new Node that records
// its parents and a closure that propagates the upstream gradient.
// Backward performs a topological sort from the root and runs the closures
// in reverse order. Leaves created with Leaf accumulate gradients in
// Grad; constants created with Const do not participate in backprop.
//
// # Goroutine safety
//
// The engine keeps no global state: a tape is nothing but the Node graph
// reachable from a root, so goroutines working on disjoint graphs (their
// own Leaf/Const nodes and the ops derived from them) never share memory
// and need no synchronization. The one hazard is a shared *Node appearing
// in graphs on different goroutines — most commonly a weight leaf handed
// out by snn.Projection.ParamLeaves — because concurrent Backward calls
// both accumulate into its Grad tensor. Callers that parallelize must give
// each goroutine its own leaves (the multi-restart engine in internal/core
// does this by cloning the network per restart); autograd itself does not
// lock.
package autograd

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/repro/snntest/internal/tensor"
)

// Node is one vertex of the computation graph. Value is the forward result;
// Grad accumulates ∂root/∂Value during Backward for nodes that require
// gradients.
type Node struct {
	Value *tensor.Tensor
	Grad  *tensor.Tensor

	requiresGrad bool
	parents      []*Node
	backward     func(out *Node) // propagates out.Grad into parents' Grad
	// visit is the topoSort epoch that last reached this node; comparing
	// against a fresh epoch replaces the per-Backward visited map. It
	// follows the package's goroutine contract: a node appears in one
	// goroutine's graph at a time.
	visit uint64
}

// Leaf wraps t as a differentiable graph input. Backward accumulates into
// its Grad field; the caller owns zeroing it between steps (ZeroGrad).
// The Grad tensor is always heap-backed — it must outlive any arena the
// value tensor is adopted into, since optimizers read it across arena
// resets.
func Leaf(t *tensor.Tensor) *Node {
	return &Node{
		Value:        t,
		Grad:         tensor.New(t.Shape()...),
		requiresGrad: true,
	}
}

// Const wraps t as a non-differentiable constant. No gradient is
// accumulated for it and graph traversal stops there.
func Const(t *tensor.Tensor) *Node {
	return &Node{Value: t}
}

// RequiresGrad reports whether gradients flow into this node.
func (n *Node) RequiresGrad() bool { return n.requiresGrad }

// ZeroGrad clears the accumulated gradient of a leaf (or any grad-bearing
// node).
func (n *Node) ZeroGrad() {
	if n.Grad != nil {
		n.Grad.Zero()
	}
}

// newOp builds an interior node whose gradient requirement is inherited
// from its parents. Nodes whose value is arena-backed are drawn from the
// arena's node slab and recycled together with the value at the next
// Reset; heap values get plain heap nodes.
func newOp(value *tensor.Tensor, back func(out *Node), parents ...*Node) *Node {
	n := slabNode(value)
	n.Value = value
	n.parents = parents
	for _, p := range parents {
		if p != nil && p.requiresGrad {
			n.requiresGrad = true
			break
		}
	}
	if n.requiresGrad {
		// Interior gradients live exactly as long as the value: if the
		// value is arena-backed, so is the gradient buffer.
		n.Grad = tensor.NewLike(value, value.Shape()...)
		n.backward = back
	}
	return n
}

// nodeSlab bump-allocates Node structs whose lifetime is one tensor-arena
// generation: it is attached to an Arena via SetAux, so Arena.Reset
// recycles the node structs in the same instant it recycles the value and
// gradient tensors they point at. Blocks are retained across resets;
// stale pointers inside them pin at most one graph's tensors until
// overwritten, bounded by the high-water mark like the arena itself.
type nodeSlab struct {
	blocks [][]Node
	bi, bo int
}

const nodeSlabBlock = 1024

func (s *nodeSlab) get() *Node {
	if s.bi == len(s.blocks) {
		s.blocks = append(s.blocks, make([]Node, nodeSlabBlock))
	}
	n := &s.blocks[s.bi][s.bo]
	s.bo++
	if s.bo == len(s.blocks[s.bi]) {
		s.bi++
		s.bo = 0
	}
	*n = Node{}
	return n
}

func (s *nodeSlab) reset() { s.bi, s.bo = 0, 0 }

// slabNode returns a zeroed Node for a value tensor: from the value's
// arena-attached slab when the value is arena-backed (fast engine), from
// the heap otherwise (reference engine, training, tests). Leaf and Const
// construct their nodes directly and so always live on the heap — a leaf
// (the optimizer's stimulus, adopted into the arena) outlives every
// Reset, which a slab node must not.
func slabNode(value *tensor.Tensor) *Node {
	ar := value.Arena()
	if ar == nil {
		return &Node{}
	}
	slab, ok := ar.Aux().(*nodeSlab)
	if !ok {
		slab = new(nodeSlab)
		ar.SetAux(slab, slab.reset)
	}
	return slab.get()
}

// accumulate adds g into p.Grad if p participates in backprop.
func accumulate(p *Node, g *tensor.Tensor) {
	if p == nil || !p.requiresGrad {
		return
	}
	tensor.AddInPlace(p.Grad, g)
}

// Backward runs reverse-mode differentiation from root, which must be a
// scalar (single-element) node. After it returns, every reachable
// gradient-requiring node holds ∂root/∂node in Grad (accumulated on top of
// whatever was already there, so call ZeroGrad on leaves between steps).
func Backward(root *Node) error {
	return backward(root, false)
}

// BackwardReference is Backward with the original per-sort visited map
// instead of the epoch counter. The traversal — and therefore every
// gradient bit — is identical; only the allocation behaviour differs. It
// exists as the differential baseline for the generation-engine
// equivalence suite and the BenchmarkGenerateRestarts speedup gate.
func BackwardReference(root *Node) error {
	return backward(root, true)
}

func backward(root *Node, mapVisited bool) error {
	if root.Value.Len() != 1 {
		return fmt.Errorf("autograd: Backward root must be scalar, got shape %v", root.Value.Shape())
	}
	if !root.requiresGrad {
		return nil // nothing reachable requires gradients
	}
	order := topoSort(root, mapVisited)
	root.Grad.Fill(1)
	for i := len(order) - 1; i >= 0; i-- {
		if n := order[i]; n.backward != nil {
			n.backward(n)
		}
	}
	if !mapVisited {
		sortBufs.Put(&sortBuf{order: order[:0]})
	}
	return nil
}

// sortBuf recycles one Backward's traversal slice. Only the epoch-based
// fast path draws from the pool; BackwardReference allocates fresh, like
// the baseline engine it stands in for.
type sortBuf struct{ order []*Node }

var sortBufs = sync.Pool{New: func() any { return new(sortBuf) }}

// topoEpoch issues one fresh epoch per topoSort; a node is visited in the
// current sort iff its visit field equals the epoch. The counter is
// atomic so concurrent Backward calls on disjoint graphs draw distinct
// epochs, keeping the per-sort visited set map-free.
var topoEpoch atomic.Uint64

// topoSort returns nodes reachable from root in topological order
// (parents before children). Iterative DFS to survive deep BPTT graphs.
// With mapVisited the visited set is a heap map (the pre-epoch baseline);
// otherwise it is the epoch counter. Both walk parents in the same order,
// so the returned order — and every downstream gradient — is identical.
func topoSort(root *Node, mapVisited bool) []*Node {
	type frame struct {
		n    *Node
		next int
	}
	var epoch uint64
	var visited map[*Node]bool
	var order []*Node
	if mapVisited {
		visited = map[*Node]bool{root: true}
	} else {
		epoch = topoEpoch.Add(1)
		root.visit = epoch
		order = sortBufs.Get().(*sortBuf).order
	}
	seen := func(p *Node) bool {
		if mapVisited {
			if visited[p] {
				return true
			}
			visited[p] = true
			return false
		}
		if p.visit == epoch {
			return true
		}
		p.visit = epoch
		return false
	}
	stack := []frame{{n: root}}
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.next < len(top.n.parents) {
			p := top.n.parents[top.next]
			top.next++
			if p != nil && p.requiresGrad && !seen(p) {
				stack = append(stack, frame{n: p})
			}
			continue
		}
		order = append(order, top.n)
		stack = stack[:len(stack)-1]
	}
	return order
}
