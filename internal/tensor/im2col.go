package tensor

// im2col-backed convolution. The column matrix unrolls every receptive
// field of the input into one contiguous row, so the convolution itself
// becomes a row-by-row dot product against the (already contiguous)
// kernel rows — branch-free and cache-linear, where the naive kernel
// bounds-checks every tap.
//
// Numerical contract: column row p lists the taps of output position p in
// exactly the (ic, ky, kx) order the naive Conv2D accumulates them, with
// out-of-bounds (padding) taps stored as 0. The dot product therefore
// performs the same additions in the same order, interleaved with exact
// +0.0 terms for padding; results equal the naive kernel's except, at
// most, the sign of a zero output (x + (+0.0) == x for every x except
// -0.0, which padding can flip to +0.0). FuzzConv2DIm2Col and
// TestEquivConv2DIm2ColMatchesNaive pin the contract.
//
// No simulation path calls this file any more: the generation engine's
// convolutions moved into snn's BPTT kernel, whose forward is the
// event-driven scatter. It is kept, with its tests, until it is deleted
// on its own.

// Im2ColLen returns the required column-buffer length for an [inC, h, w]
// input under a kh×kw kernel with the given spec.
func Im2ColLen(inC, h, w, kh, kw int, spec ConvSpec) int {
	oh := ConvOutDim(h, kh, spec.Stride, spec.Pad)
	ow := ConvOutDim(w, kw, spec.Stride, spec.Pad)
	return oh * ow * inC * kh * kw
}

// Im2Col unrolls the raw [inC, h, w] input x into the column buffer col
// (length Im2ColLen): row p = oy·ow + ox holds output position (oy, ox)'s
// receptive field in (ic, ky, kx) order, with zeros for padding taps.
// Every cell of col is written, so a reused buffer needs no clearing.
//
//snn:hotpath
func Im2Col(col, x []float64, inC, h, w, kh, kw int, spec ConvSpec) {
	oh := ConvOutDim(h, kh, spec.Stride, spec.Pad)
	ow := ConvOutDim(w, kw, spec.Stride, spec.Pad)
	patch := inC * kh * kw
	if len(col) != oh*ow*patch {
		failf("Im2Col buffer length %d does not match %d positions × %d taps", len(col), oh*ow, patch)
	}
	if len(x) != inC*h*w {
		failf("Im2Col input length %d does not match [%d,%d,%d]", len(x), inC, h, w)
	}
	for oy := 0; oy < oh; oy++ {
		iy0 := oy*spec.Stride - spec.Pad
		for ox := 0; ox < ow; ox++ {
			ix0 := ox*spec.Stride - spec.Pad
			// In-bounds kernel-column span for this window; taps outside
			// it are padding and stored as literal zeros, so each kw-wide
			// segment is zero prefix + bulk copy + zero suffix instead of
			// a bounds branch per tap. Large padding can push the window
			// entirely off the input, so both ends are clamped to [0, kw]
			// and an empty span means the whole segment is zeros.
			kx0, kx1 := 0, kw
			if ix0 < 0 {
				kx0 = -ix0
				if kx0 > kw {
					kx0 = kw
				}
			}
			if ix0+kx1 > w {
				kx1 = w - ix0
			}
			if kx1 < kx0 {
				kx1 = kx0
			}
			row := col[(oy*ow+ox)*patch : (oy*ow+ox+1)*patch]
			idx := 0
			for ic := 0; ic < inC; ic++ {
				for ky := 0; ky < kh; ky++ {
					iy := iy0 + ky
					seg := row[idx : idx+kw]
					idx += kw
					if iy < 0 || iy >= h {
						for kx := range seg {
							seg[kx] = 0
						}
						continue
					}
					for kx := 0; kx < kx0; kx++ {
						seg[kx] = 0
					}
					if kx0 < kx1 {
						xrow := x[(ic*h+iy)*w : (ic*h+iy+1)*w]
						copy(seg[kx0:kx1], xrow[ix0+kx0:ix0+kx1])
					}
					for kx := kx1; kx < kw; kx++ {
						seg[kx] = 0
					}
				}
			}
		}
	}
}

// Conv2DColInto computes the convolution output (flattened
// [outC, outH·outW]) from a column buffer filled by Im2Col and the rank-4
// kernel w, writing into out without allocating: out[oc·np+p] is the dot
// product of kernel row oc with column row p, accumulated in the naive
// kernel's (ic, ky, kx) order.
//
//snn:hotpath
func Conv2DColInto(out, col []float64, w *Tensor) {
	if w.Rank() != 4 {
		failf("Conv2DColInto requires rank-4 kernel, got %v", w.shape)
	}
	outC := w.shape[0]
	patch := w.shape[1] * w.shape[2] * w.shape[3]
	if patch == 0 || len(col)%patch != 0 {
		failf("Conv2DColInto column length %d not divisible by patch %d", len(col), patch)
	}
	np := len(col) / patch
	if len(out) != outC*np {
		failf("Conv2DColInto output length %d does not match %d×%d", len(out), outC, np)
	}
	for oc := 0; oc < outC; oc++ {
		wrow := w.data[oc*patch : (oc+1)*patch]
		orow := out[oc*np : (oc+1)*np]
		for p := 0; p < np; p++ {
			crow := col[p*patch : (p+1)*patch]
			s := 0.0
			for j, cv := range crow {
				s += wrow[j] * cv
			}
			orow[p] = s
		}
	}
}

// Conv2DIm2Col computes the same cross-correlation as Conv2D through an
// explicit column matrix. It allocates its own buffers and is the
// self-contained, reference-comparable form of the im2col path (the fuzz
// harness differentiates it against the naive Conv2D).
func Conv2DIm2Col(x, w *Tensor, spec ConvSpec) *Tensor {
	if x.Rank() != 3 || w.Rank() != 4 {
		failf("Conv2DIm2Col requires input rank 3 and kernel rank 4, got %v and %v", x.shape, w.shape)
	}
	inC, h, wd := x.shape[0], x.shape[1], x.shape[2]
	if w.shape[1] != inC {
		failf("Conv2DIm2Col channel mismatch input %v kernel %v", x.shape, w.shape)
	}
	kh, kw := w.shape[2], w.shape[3]
	oh := ConvOutDim(h, kh, spec.Stride, spec.Pad)
	ow := ConvOutDim(wd, kw, spec.Stride, spec.Pad)
	if oh <= 0 || ow <= 0 {
		failf("Conv2DIm2Col produces empty output for input %v kernel %v spec %+v", x.shape, w.shape, spec)
	}
	col := make([]float64, Im2ColLen(inC, h, wd, kh, kw, spec))
	Im2Col(col, x.data, inC, h, wd, kh, kw, spec)
	out := newResult(x, w, w.shape[0], oh, ow)
	Conv2DColInto(out.data, col, w)
	return out
}
