package tensor

import "math"

// Add returns a + b elementwise.
func Add(a, b *Tensor) *Tensor {
	assertSameShape("Add", a, b)
	out := newResult(a, b, a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] + b.data[i]
	}
	return out
}

// Sub returns a - b elementwise.
func Sub(a, b *Tensor) *Tensor {
	assertSameShape("Sub", a, b)
	out := newResult(a, b, a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] - b.data[i]
	}
	return out
}

// Mul returns a * b elementwise (Hadamard product).
func Mul(a, b *Tensor) *Tensor {
	assertSameShape("Mul", a, b)
	out := newResult(a, b, a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] * b.data[i]
	}
	return out
}

// Scale returns a * s elementwise.
func Scale(a *Tensor, s float64) *Tensor {
	out := NewLike(a, a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] * s
	}
	return out
}

// AddScalar returns a + s elementwise.
func AddScalar(a *Tensor, s float64) *Tensor {
	out := NewLike(a, a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] + s
	}
	return out
}

// Neg returns -a.
func Neg(a *Tensor) *Tensor { return Scale(a, -1) }

// Abs returns |a| elementwise.
func Abs(a *Tensor) *Tensor {
	out := NewLike(a, a.shape...)
	for i := range a.data {
		out.data[i] = math.Abs(a.data[i])
	}
	return out
}

// Relu returns max(0, a) elementwise.
func Relu(a *Tensor) *Tensor {
	out := NewLike(a, a.shape...)
	for i := range a.data {
		if a.data[i] > 0 {
			out.data[i] = a.data[i]
		}
	}
	return out
}

// Square returns a² elementwise.
func Square(a *Tensor) *Tensor {
	out := NewLike(a, a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] * a.data[i]
	}
	return out
}

// Heaviside returns 1 where a > threshold, else 0, elementwise.
func Heaviside(a *Tensor, threshold float64) *Tensor {
	out := NewLike(a, a.shape...)
	for i := range a.data {
		if a.data[i] > threshold {
			out.data[i] = 1
		}
	}
	return out
}

// AddInPlace computes dst += src elementwise.
//
//snn:hotpath
func AddInPlace(dst, src *Tensor) {
	assertSameShape("AddInPlace", dst, src)
	for i := range dst.data {
		dst.data[i] += src.data[i]
	}
}

// ScaleInPlace computes dst *= s elementwise.
//
//snn:hotpath
func ScaleInPlace(dst *Tensor, s float64) {
	for i := range dst.data {
		dst.data[i] *= s
	}
}

// NonZeroIndices writes the indices of x's non-zero entries into idx in
// ascending order and returns idx[:n] for the n entries found; idx must
// hold at least len(x) entries. It is the active-input scan of the
// event-driven simulator kernels: -0.0 counts as zero and NaN as
// non-zero, so the skipped entries are exactly those whose product with
// a finite weight is a signed zero. Indices are int32 to halve the
// buffer's footprint; simulator rows are far below 2³¹ entries.
//
//snn:hotpath
func NonZeroIndices(idx []int32, x []float64) []int32 {
	if len(idx) < len(x) {
		failf("NonZeroIndices buffer length %d is shorter than input length %d", len(idx), len(x))
	}
	n := 0
	for j, v := range x {
		if v != 0 {
			idx[n] = int32(j)
			n++
		}
	}
	return idx[:n]
}
