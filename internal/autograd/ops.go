package autograd

import (
	"github.com/repro/snntest/internal/tensor"
)

// Add returns a + b elementwise.
func Add(a, b *Node) *Node {
	v := tensor.Add(a.Value, b.Value)
	return newOp(v, func(out *Node) {
		accumulate(a, out.Grad)
		accumulate(b, out.Grad)
	}, a, b)
}

// AddN returns the elementwise sum of all operands (at least one).
func AddN(nodes ...*Node) *Node {
	if len(nodes) == 0 {
		checkf("AddN requires at least one operand")
	}
	v := tensor.NewLike(nodes[0].Value, nodes[0].Value.Shape()...)
	copy(v.Data(), nodes[0].Value.Data())
	for _, n := range nodes[1:] {
		tensor.AddInPlace(v, n.Value)
	}
	return newOp(v, func(out *Node) {
		for _, n := range nodes {
			accumulate(n, out.Grad)
		}
	}, nodes...)
}

// Sub returns a - b elementwise.
func Sub(a, b *Node) *Node {
	v := tensor.Sub(a.Value, b.Value)
	return newOp(v, func(out *Node) {
		accumulate(a, out.Grad)
		if b.requiresGrad {
			accumulate(b, tensor.Neg(out.Grad))
		}
	}, a, b)
}

// Mul returns a * b elementwise (Hadamard). The per-operand gradient
// products are only materialized for operands that require gradients —
// masks and gates enter as constants, and their cotangents would be
// discarded.
func Mul(a, b *Node) *Node {
	v := tensor.Mul(a.Value, b.Value)
	return newOp(v, func(out *Node) {
		if a.requiresGrad {
			accumulate(a, tensor.Mul(out.Grad, b.Value))
		}
		if b.requiresGrad {
			accumulate(b, tensor.Mul(out.Grad, a.Value))
		}
	}, a, b)
}

// Scale returns a * s.
func Scale(a *Node, s float64) *Node {
	v := tensor.Scale(a.Value, s)
	return newOp(v, func(out *Node) {
		accumulate(a, tensor.Scale(out.Grad, s))
	}, a)
}

// AddScalar returns a + s elementwise.
func AddScalar(a *Node, s float64) *Node {
	v := tensor.AddScalar(a.Value, s)
	return newOp(v, func(out *Node) {
		accumulate(a, out.Grad)
	}, a)
}

// Neg returns -a.
func Neg(a *Node) *Node { return Scale(a, -1) }

// Abs returns |a| elementwise; the subgradient at 0 is 0.
func Abs(a *Node) *Node {
	v := tensor.Abs(a.Value)
	return newOp(v, func(out *Node) {
		g := tensor.NewLike(a.Value, a.Value.Shape()...)
		av, gd, od := a.Value.Data(), g.Data(), out.Grad.Data()
		for i := range gd {
			switch {
			case av[i] > 0:
				gd[i] = od[i]
			case av[i] < 0:
				gd[i] = -od[i]
			}
		}
		accumulate(a, g)
	}, a)
}

// Relu returns max(0, a) elementwise; the subgradient at 0 is 0.
func Relu(a *Node) *Node {
	v := tensor.Relu(a.Value)
	return newOp(v, func(out *Node) {
		g := tensor.NewLike(a.Value, a.Value.Shape()...)
		av, gd, od := a.Value.Data(), g.Data(), out.Grad.Data()
		for i := range gd {
			if av[i] > 0 {
				gd[i] = od[i]
			}
		}
		accumulate(a, g)
	}, a)
}

// Square returns a² elementwise.
func Square(a *Node) *Node {
	v := tensor.Square(a.Value)
	return newOp(v, func(out *Node) {
		g := tensor.Mul(out.Grad, a.Value)
		tensor.ScaleInPlace(g, 2)
		accumulate(a, g)
	}, a)
}

// Sum reduces a to a scalar node holding Σ aᵢ. The scalar inherits a's
// arena so the loss math downstream of a reduction stays arena-backed.
func Sum(a *Node) *Node {
	v := tensor.NewLike(a.Value)
	v.Data()[0] = tensor.Sum(a.Value)
	return newOp(v, func(out *Node) {
		accumulate(a, tensor.FullLike(a.Value, out.Grad.Data()[0], a.Value.Shape()...))
	}, a)
}

// Mean reduces a to a scalar node holding its arithmetic mean.
func Mean(a *Node) *Node {
	n := a.Value.Len()
	if n == 0 {
		return Const(tensor.Scalar(0))
	}
	return Scale(Sum(a), 1/float64(n))
}

// MatVec returns w·x for matrix node w (out×in) and vector node x (in),
// differentiable in both operands.
func MatVec(w, x *Node) *Node {
	v := tensor.MatVec(w.Value, x.Value)
	return newOp(v, func(out *Node) {
		if x.requiresGrad {
			accumulate(x, tensor.MatVecT(w.Value, out.Grad))
		}
		if w.requiresGrad {
			accumulate(w, tensor.Outer(out.Grad, x.Value))
		}
	}, w, x)
}

// Conv2D returns the cross-correlation of input node x [inC,H,W] with
// kernel node w [outC,inC,kH,kW], differentiable in both operands.
func Conv2D(x, w *Node, spec tensor.ConvSpec) *Node {
	v := tensor.Conv2D(x.Value, w.Value, spec)
	return newOp(v, func(out *Node) {
		if x.requiresGrad {
			accumulate(x, tensor.Conv2DBackwardInput(out.Grad, w.Value, x.Value.Shape(), spec))
		}
		if w.requiresGrad {
			accumulate(w, tensor.Conv2DBackwardKernel(out.Grad, x.Value, w.Value.Shape(), spec))
		}
	}, x, w)
}

// SumPool2D sums non-overlapping k×k windows of x [C,H,W].
func SumPool2D(x *Node, k int) *Node {
	v := tensor.SumPool2D(x.Value, k)
	return newOp(v, func(out *Node) {
		accumulate(x, tensor.SumPool2DBackward(out.Grad, x.Value.Shape(), k))
	}, x)
}

// Slice returns a node viewing length elements of a's flattened value
// starting at start, reshaped to shape. The view shares a's backing data;
// gradients are routed back into the corresponding segment. It is how the
// per-step input frames of a [T·frame] stimulus leaf enter the SNN graph.
func Slice(a *Node, start, length int, shape ...int) *Node {
	if start < 0 || length < 0 || start+length > a.Value.Len() {
		checkf("Slice [%d:%d] out of range for %d elements", start, start+length, a.Value.Len())
	}
	v := a.Value.ViewRange(start, length, shape...)
	return newOp(v, func(out *Node) {
		if !a.requiresGrad {
			return
		}
		g := a.Grad.RawRange(start, length)
		og := out.Grad.Data()
		for i := range og {
			g[i] += og[i]
		}
	}, a)
}

// MulConstVec multiplies a elementwise by a constant mask/weight tensor.
func MulConstVec(a *Node, mask *tensor.Tensor) *Node {
	return Mul(a, Const(mask))
}

// Reshape returns a node viewing a's value under a new shape. Gradients
// flow through unchanged (reshaped back).
func Reshape(a *Node, shape ...int) *Node {
	v := a.Value.Reshape(shape...)
	return newOp(v, func(out *Node) {
		accumulate(a, out.Grad.Reshape(a.Value.Shape()...))
	}, a)
}
