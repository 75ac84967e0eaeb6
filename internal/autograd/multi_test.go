package autograd

import (
	"math"
	"slices"
	"testing"

	"github.com/repro/snntest/internal/tensor"
)

// fanOut builds a MultiOp computing o_k = c_k ⊙ a for every c_k. Its
// backward replays the composed graph's accumulation order: the composed
// form (one MulConstVec per output) accumulates into a.Grad in reverse
// topological order of the Mul nodes, which is descending output rank.
func fanOut(a *Node, cs []*tensor.Tensor) []*Node {
	outs := make([]*Node, len(cs))
	var m *MultiOp
	m = NewMultiOp(func() {
		var reached []int
		for k := range outs {
			if _, ok := m.Reached(k); ok {
				reached = append(reached, k)
			}
		}
		slices.SortFunc(reached, func(x, y int) int {
			rx, _ := m.Reached(x)
			ry, _ := m.Reached(y)
			return ry - rx
		})
		ag := a.Grad.Data()
		for _, k := range reached {
			og, cd := outs[k].Grad.Data(), cs[k].Data()
			for i := range ag {
				ag[i] += og[i] * cd[i]
			}
		}
	})
	m.Bind([]*Node{a}, len(cs))
	for k, c := range cs {
		v := tensor.Mul(a.Value, c)
		outs[k] = m.Output(k, v, tensor.New(v.Shape()...))
	}
	return outs
}

// TestMultiOpReplaysComposedOrder pins MultiOp against the composed tape:
// the same function built once from MulConstVec nodes and once as a
// MultiOp whose backward orders its accumulation by Reached ranks must
// produce bit-identical input gradients. The first element's
// contributions (±1e16 and 1) sum differently in output-index order, so
// the comparison is not vacuous; the fifth output is never reached.
func TestMultiOpReplaysComposedOrder(t *testing.T) {
	x := tensor.FromSlice([]float64{1, 2}, 2)
	cs := []*tensor.Tensor{
		tensor.FromSlice([]float64{1, 3}, 2),
		tensor.FromSlice([]float64{1e16, 1e16}, 2),
		tensor.FromSlice([]float64{1, -7}, 2),
		tensor.FromSlice([]float64{-1e16, 0.5}, 2),
		tensor.FromSlice([]float64{5, 5}, 2),
	}
	// The root reaches o2, o0, o1, o3 in that order.
	root := func(o []*Node) *Node { return AddN(Sum(o[2]), Sum(o[0]), Sum(o[1]), Sum(o[3])) }

	composed := Leaf(x.Clone())
	var co []*Node
	for _, c := range cs {
		co = append(co, MulConstVec(composed, c))
	}
	if err := Backward(root(co)); err != nil {
		t.Fatal(err)
	}

	multi := Leaf(x.Clone())
	mo := fanOut(multi, cs)
	if err := Backward(root(mo)); err != nil {
		t.Fatal(err)
	}
	for i, want := range composed.Grad.Data() {
		if got := multi.Grad.Data()[i]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("gradient[%d] = %v, composed tape %v", i, got, want)
		}
	}
	indexOrder := 0.0
	for _, c := range cs[:4] {
		indexOrder += c.Data()[0]
	}
	if indexOrder == composed.Grad.Data()[0] {
		t.Fatalf("composed gradient %v equals the index-order sum: the order check is vacuous", indexOrder)
	}
}

// TestMultiOpUnreachedOutputs pins Reached's reachability: outputs the
// root does not depend on report false, and the backward still runs once.
func TestMultiOpUnreachedOutputs(t *testing.T) {
	a := Leaf(tensor.FromSlice([]float64{1, 2}, 2))
	runs := 0
	var m *MultiOp
	var reached [2]bool
	m = NewMultiOp(func() {
		runs++
		for k := range reached {
			_, reached[k] = m.Reached(k)
		}
	})
	m.Bind([]*Node{a}, 2)
	o0 := m.Output(0, a.Value.Clone(), tensor.New(2))
	m.Output(1, a.Value.Clone(), tensor.New(2))
	if err := Backward(Sum(o0)); err != nil {
		t.Fatal(err)
	}
	if runs != 1 || !reached[0] || reached[1] {
		t.Fatalf("backward ran %d times, reached %v; want once, [true false]", runs, reached)
	}
}
