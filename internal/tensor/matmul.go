package tensor

// MatVec returns w·x for a weight matrix w (out×in) and vector x (in).
func MatVec(w, x *Tensor) *Tensor {
	if w.Rank() != 2 {
		failf("MatVec requires rank-2 matrix, got %v", w.shape)
	}
	rows, cols := w.shape[0], w.shape[1]
	if x.Len() != cols {
		failf("MatVec dimension mismatch %v · %v", w.shape, x.shape)
	}
	out := newResult(w, x, rows)
	xd := x.data
	for i := 0; i < rows; i++ {
		wrow := w.data[i*cols : (i+1)*cols]
		s := 0.0
		for j, xv := range xd {
			s += wrow[j] * xv
		}
		out.data[i] = s
	}
	return out
}

// MatVecT returns wᵀ·g for a weight matrix w (out×in) and vector g (out):
// the gradient of MatVec(w, x) with respect to x.
func MatVecT(w, g *Tensor) *Tensor {
	rows, cols := w.shape[0], w.shape[1]
	if g.Len() != rows {
		failf("MatVecT dimension mismatch %vᵀ · %v", w.shape, g.shape)
	}
	out := newResult(w, g, cols)
	for i := 0; i < rows; i++ {
		gv := g.data[i]
		if gv == 0 {
			continue
		}
		wrow := w.data[i*cols : (i+1)*cols]
		for j := 0; j < cols; j++ {
			out.data[j] += wrow[j] * gv
		}
	}
	return out
}

// Outer returns the outer product g⊗x as a len(g)×len(x) matrix: the
// gradient of MatVec(w, x) with respect to w.
func Outer(g, x *Tensor) *Tensor {
	rows, cols := g.Len(), x.Len()
	out := newResult(g, x, rows, cols)
	for i := 0; i < rows; i++ {
		gv := g.data[i]
		if gv == 0 {
			continue
		}
		orow := out.data[i*cols : (i+1)*cols]
		for j := 0; j < cols; j++ {
			orow[j] = gv * x.data[j]
		}
	}
	return out
}

// Dot returns the inner product of two equal-length tensors.
//
//snn:hotpath
func Dot(a, b *Tensor) float64 {
	if a.Len() != b.Len() {
		failf("Dot length mismatch %v vs %v", a.shape, b.shape)
	}
	s := 0.0
	for i := range a.data {
		s += a.data[i] * b.data[i]
	}
	return s
}
