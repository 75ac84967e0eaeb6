package autograd

import (
	"math"
	"math/rand"
	"testing"

	"github.com/repro/snntest/internal/tensor"
)

// numericalGrad estimates ∂f/∂x[i] by central differences, where f rebuilds
// the graph from x's current data and returns the scalar loss value.
func numericalGrad(x *tensor.Tensor, i int, f func() float64) float64 {
	const eps = 1e-6
	orig := x.Data()[i]
	x.Data()[i] = orig + eps
	up := f()
	x.Data()[i] = orig - eps
	down := f()
	x.Data()[i] = orig
	return (up - down) / (2 * eps)
}

// checkGrad verifies the analytic gradient of loss(leaf) against finite
// differences at every coordinate of the leaf.
func checkGrad(t *testing.T, name string, data *tensor.Tensor, loss func(x *Node) *Node, tol float64) {
	t.Helper()
	leaf := Leaf(data)
	root := loss(leaf)
	Backward(root)
	for i := range data.Data() {
		num := numericalGrad(data, i, func() float64 {
			return loss(Leaf(data)).Value.Data()[0]
		})
		got := leaf.Grad.Data()[i]
		if math.Abs(got-num) > tol*(1+math.Abs(num)) {
			t.Errorf("%s: grad[%d] = %g, finite difference %g", name, i, got, num)
		}
	}
}

func randVec(seed int64, n int) *tensor.Tensor {
	return tensor.RandNormal(rand.New(rand.NewSource(seed)), 0, 1, n)
}

func TestBackwardRequiresScalarRoot(t *testing.T) {
	if err := Backward(Leaf(tensor.New(2))); err == nil {
		t.Error("expected error for non-scalar root")
	}
}

func TestLeafConstSemantics(t *testing.T) {
	l := Leaf(tensor.Scalar(1))
	c := Const(tensor.Scalar(2))
	if !l.requiresGrad || c.requiresGrad {
		t.Fatal("Leaf must require grad, Const must not")
	}
	root := Sum(Mul(l, c))
	Backward(root)
	if l.Grad.Data()[0] != 2 {
		t.Errorf("d(l·c)/dl = %g, want 2", l.Grad.Data()[0])
	}
	if c.Grad != nil {
		t.Error("Const must not accumulate gradient")
	}
}

func TestGradAccumulatesAcrossBackwardCalls(t *testing.T) {
	l := Leaf(tensor.Scalar(3))
	Backward(Sum(l))
	Backward(Sum(l))
	if l.Grad.Data()[0] != 2 {
		t.Errorf("accumulated grad = %g, want 2", l.Grad.Data()[0])
	}
	l.ZeroGrad()
	if l.Grad.Data()[0] != 0 {
		t.Error("ZeroGrad did not clear gradient")
	}
}

func TestDiamondGraphGradient(t *testing.T) {
	// y = sum(x*x + x) reuses x twice; gradient must be 2x+1.
	x := Leaf(tensor.FromSlice([]float64{2, -3}, 2))
	Backward(Sum(Add(Mul(x, x), x)))
	want := []float64{5, -5}
	for i, w := range want {
		if g := x.Grad.Data()[i]; math.Abs(g-w) > 1e-12 {
			t.Errorf("grad[%d] = %g, want %g", i, g, w)
		}
	}
}

func TestAddSubMulGradients(t *testing.T) {
	a := randVec(1, 5)
	b := randVec(2, 5)
	checkGrad(t, "Add", a, func(x *Node) *Node { return Sum(Add(x, Const(b))) }, 1e-5)
	checkGrad(t, "Sub-left", a, func(x *Node) *Node { return Sum(Sub(x, Const(b))) }, 1e-5)
	checkGrad(t, "Sub-right", a, func(x *Node) *Node { return Sum(Sub(Const(b), x)) }, 1e-5)
	checkGrad(t, "Mul", a, func(x *Node) *Node { return Sum(Mul(x, Const(b))) }, 1e-5)
	checkGrad(t, "Square", a, func(x *Node) *Node { return Sum(Square(x)) }, 1e-5)
	checkGrad(t, "Scale", a, func(x *Node) *Node { return Sum(Scale(x, -2.5)) }, 1e-5)
	checkGrad(t, "AddScalar", a, func(x *Node) *Node { return Sum(AddScalar(x, 7)) }, 1e-5)
	checkGrad(t, "Neg", a, func(x *Node) *Node { return Sum(Neg(x)) }, 1e-5)
	checkGrad(t, "Mean", a, func(x *Node) *Node { return Mean(Square(x)) }, 1e-5)
}

func TestAddNGradient(t *testing.T) {
	a := randVec(3, 4)
	// x appears three times: gradient of sum(3x) is 3.
	leaf := Leaf(a)
	Backward(Sum(AddN(leaf, leaf, leaf)))
	for i := range a.Data() {
		if g := leaf.Grad.Data()[i]; math.Abs(g-3) > 1e-12 {
			t.Errorf("AddN grad[%d] = %g, want 3", i, g)
		}
	}
}

func TestAbsReluGradients(t *testing.T) {
	// Avoid the kink at 0 where subgradients differ from central differences.
	a := tensor.FromSlice([]float64{1.5, -2.5, 0.7, -0.1}, 4)
	checkGrad(t, "Abs", a, func(x *Node) *Node { return Sum(Abs(x)) }, 1e-5)
	checkGrad(t, "Relu", a, func(x *Node) *Node { return Sum(Relu(x)) }, 1e-5)
}

func TestMatVecGradients(t *testing.T) {
	w := tensor.RandNormal(rand.New(rand.NewSource(4)), 0, 1, 4, 3)
	x := randVec(5, 3)
	checkGrad(t, "MatVec/x", x, func(xn *Node) *Node { return Sum(Square(MatVec(Const(w), xn))) }, 1e-4)
	checkGrad(t, "MatVec/w", w, func(wn *Node) *Node { return Sum(Square(MatVec(wn, Const(x)))) }, 1e-4)
}

func TestConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := tensor.RandNormal(rng, 0, 1, 2, 4, 4)
	w := tensor.RandNormal(rng, 0, 1, 3, 2, 2, 2)
	spec := tensor.ConvSpec{Stride: 1}
	checkGrad(t, "Conv2D/x", x, func(xn *Node) *Node { return Sum(Square(Conv2D(xn, Const(w), spec))) }, 1e-4)
	checkGrad(t, "Conv2D/w", w, func(wn *Node) *Node { return Sum(Square(Conv2D(Const(x), wn, spec))) }, 1e-4)
}

func TestSumPool2DGradient(t *testing.T) {
	x := tensor.RandNormal(rand.New(rand.NewSource(7)), 0, 1, 1, 4, 4)
	checkGrad(t, "SumPool2D", x, func(xn *Node) *Node { return Sum(Square(SumPool2D(xn, 2))) }, 1e-4)
}

func TestReshapeGradient(t *testing.T) {
	x := randVec(8, 6)
	checkGrad(t, "Reshape", x, func(xn *Node) *Node { return Sum(Square(Reshape(xn, 2, 3))) }, 1e-5)
}

func TestSliceGradientRouting(t *testing.T) {
	x := Leaf(tensor.FromSlice([]float64{1, 2, 3, 4, 5, 6}, 6))
	// Loss touches only the middle slice; gradient lands there only.
	mid := Slice(x, 2, 2, 2)
	Backward(Sum(Scale(mid, 3)))
	want := []float64{0, 0, 3, 3, 0, 0}
	for i, w := range want {
		if g := x.Grad.Data()[i]; g != w {
			t.Errorf("grad[%d] = %g, want %g", i, g, w)
		}
	}
	// Slices share backing data with the leaf.
	x.Value.Data()[2] = 42
	if mid.Value.Data()[0] != 42 {
		t.Error("Slice must view, not copy")
	}
}

func TestSliceOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Slice(Leaf(tensor.New(4)), 2, 3, 3)
}

func TestSliceFiniteDifference(t *testing.T) {
	data := randVec(9, 8)
	checkGrad(t, "Slice", data, func(x *Node) *Node {
		a := Slice(x, 0, 4, 4)
		b := Slice(x, 4, 4, 4)
		return Sum(Square(Add(a, b)))
	}, 1e-5)
}

func TestDeepChainBackward(t *testing.T) {
	// A 10 000-op chain must not overflow the stack (iterative topo sort).
	x := Leaf(tensor.Scalar(1))
	n := AddScalar(x, 0)
	for i := 0; i < 10000; i++ {
		n = AddScalar(n, 0)
	}
	Backward(Sum(n))
	if x.Grad.Data()[0] != 1 {
		t.Errorf("deep chain grad = %g, want 1", x.Grad.Data()[0])
	}
}
