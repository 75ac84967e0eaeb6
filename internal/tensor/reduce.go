package tensor

import "math"

// Sum returns the sum of all elements.
func Sum(a *Tensor) float64 {
	s := 0.0
	for _, v := range a.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func Mean(a *Tensor) float64 {
	if len(a.data) == 0 {
		return 0
	}
	return Sum(a) / float64(len(a.data))
}

// Variance returns the population variance of all elements.
func Variance(a *Tensor) float64 {
	n := len(a.data)
	if n == 0 {
		return 0
	}
	m := Mean(a)
	s := 0.0
	for _, v := range a.data {
		d := v - m
		s += d * d
	}
	return s / float64(n)
}

// Min returns the minimum element (+Inf for empty tensors).
func Min(a *Tensor) float64 {
	m := math.Inf(1)
	for _, v := range a.data {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the maximum element (-Inf for empty tensors).
func Max(a *Tensor) float64 {
	m := math.Inf(-1)
	for _, v := range a.data {
		if v > m {
			m = v
		}
	}
	return m
}

// ArgMax returns the flat index of the first maximum element, or -1 for an
// empty tensor.
func ArgMax(a *Tensor) int {
	best, idx := math.Inf(-1), -1
	for i, v := range a.data {
		if v > best {
			best, idx = v, i
		}
	}
	return idx
}

// L1Norm returns Σ|aᵢ|.
func L1Norm(a *Tensor) float64 {
	s := 0.0
	for _, v := range a.data {
		s += math.Abs(v)
	}
	return s
}

// L1Diff returns Σ|aᵢ−bᵢ|, the L1 distance between two equal-shape tensors.
func L1Diff(a, b *Tensor) float64 {
	assertSameShape("L1Diff", a, b)
	s := 0.0
	for i := range a.data {
		s += math.Abs(a.data[i] - b.data[i])
	}
	return s
}

// RowEqual reports whether row r of a and b is elementwise identical,
// treating the first axis as rows. It lets step-major spike records be
// compared one time step at a time — the early-exit hot path of the
// incremental fault campaign — without materializing per-row tensors.
//
//snn:hotpath
func RowEqual(a, b *Tensor, r int) bool {
	assertSameShape("RowEqual", a, b)
	if len(a.shape) == 0 {
		failf("RowEqual on rank-0 tensor")
	}
	rows := a.shape[0]
	if r < 0 || r >= rows {
		failf("RowEqual row %d out of range [0, %d)", r, rows)
	}
	w := len(a.data) / rows
	ra := a.data[r*w : (r+1)*w]
	rb := b.data[r*w : (r+1)*w]
	for i := range ra {
		if ra[i] != rb[i] {
			return false
		}
	}
	return true
}

// SumCols sums a rank-2 tensor along its first axis, returning a vector of
// length Dim(1): out[j] = Σᵢ a[i,j].
func SumCols(a *Tensor) *Tensor {
	rows, cols := a.shape[0], a.shape[1]
	out := NewLike(a, cols)
	for i := 0; i < rows; i++ {
		row := a.data[i*cols : (i+1)*cols]
		for j, v := range row {
			out.data[j] += v
		}
	}
	return out
}

// Softmax returns the softmax of a vector, computed stably.
func Softmax(a *Tensor) *Tensor {
	out := NewLike(a, a.shape...)
	m := Max(a)
	s := 0.0
	for i, v := range a.data {
		e := math.Exp(v - m)
		out.data[i] = e
		s += e
	}
	if s == 0 {
		return out
	}
	for i := range out.data {
		out.data[i] /= s
	}
	return out
}
