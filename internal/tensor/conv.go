package tensor

// ConvSpec describes the geometry of a 2-D convolution or pooling window.
type ConvSpec struct {
	Stride int // window step, ≥ 1
	Pad    int // zero padding on each spatial border, ≥ 0
}

// ConvOutDim returns the output spatial size for an input of size in with a
// kernel of size k under the given stride and padding.
func ConvOutDim(in, k, stride, pad int) int {
	return (in+2*pad-k)/stride + 1
}

// Conv2D computes the cross-correlation of input x [inC,H,W] with kernel
// w [outC,inC,kH,kW], producing [outC,outH,outW]. Stride and padding follow
// the usual CNN convention; bias is not applied (spiking layers have none).
func Conv2D(x, w *Tensor, spec ConvSpec) *Tensor {
	if x.Rank() != 3 || w.Rank() != 4 {
		failf("Conv2D requires input rank 3 and kernel rank 4, got %v and %v", x.shape, w.shape)
	}
	inC, h, wd := x.shape[0], x.shape[1], x.shape[2]
	outC, kc, kh, kw := w.shape[0], w.shape[1], w.shape[2], w.shape[3]
	if kc != inC {
		failf("Conv2D channel mismatch input %v kernel %v", x.shape, w.shape)
	}
	oh := ConvOutDim(h, kh, spec.Stride, spec.Pad)
	ow := ConvOutDim(wd, kw, spec.Stride, spec.Pad)
	if oh <= 0 || ow <= 0 {
		failf("Conv2D produces empty output for input %v kernel %v spec %+v", x.shape, w.shape, spec)
	}
	out := newResult(x, w, outC, oh, ow)
	for oc := 0; oc < outC; oc++ {
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*spec.Stride - spec.Pad
			ky0, ky1 := clampKernelRange(iy0, kh, h)
			for ox := 0; ox < ow; ox++ {
				s := 0.0
				ix0 := ox*spec.Stride - spec.Pad
				kx0, kx1 := clampKernelRange(ix0, kw, wd)
				for ic := 0; ic < inC; ic++ {
					for ky := ky0; ky < ky1; ky++ {
						iy := iy0 + ky
						xrow := x.data[(ic*h+iy)*wd : (ic*h+iy+1)*wd]
						wrow := w.data[((oc*inC+ic)*kh+ky)*kw : ((oc*inC+ic)*kh+ky+1)*kw]
						for kx := kx0; kx < kx1; kx++ {
							s += xrow[ix0+kx] * wrow[kx]
						}
					}
				}
				out.data[(oc*oh+oy)*ow+ox] = s
			}
		}
	}
	return out
}

// clampKernelRange returns the half-open kernel-coordinate range [k0, k1)
// whose taps land inside an input axis of the given size when the window
// origin is at i0. Out-of-range taps read zero padding and contribute
// nothing, so iterating only the clamped range preserves the exact
// accumulation sequence of the full branchy loop.
func clampKernelRange(i0, k, size int) (int, int) {
	k0, k1 := 0, k
	if i0 < 0 {
		k0 = -i0
	}
	if i0+k1 > size {
		k1 = size - i0
	}
	if k1 < k0 {
		k1 = k0
	}
	return k0, k1
}

// Conv2DBackwardInput returns ∂L/∂x given upstream gradient g [outC,outH,outW]
// for Conv2D(x, w, spec) with input shape [inC,H,W].
func Conv2DBackwardInput(g, w *Tensor, inShape []int, spec ConvSpec) *Tensor {
	dx := newResult(g, w, inShape[0], inShape[1], inShape[2])
	Conv2DBackwardInputInto(dx.data, g.data, w, inShape, spec)
	return dx
}

// Conv2DBackwardInputInto writes ∂L/∂x of Conv2D(x, w, spec) for input
// shape inShape into dx, given the flattened upstream gradient g: dx is
// zeroed, then every non-zero g entry scatters through the kernel in
// (oc, oy, ox, ic, ky, kx) order. It is the one body behind
// Conv2DBackwardInput and snn's BPTT kernel, so both sum in one order.
//
//snn:hotpath
func Conv2DBackwardInputInto(dx, g []float64, w *Tensor, inShape []int, spec ConvSpec) {
	inC, h, wd := inShape[0], inShape[1], inShape[2]
	outC, _, kh, kw := w.shape[0], w.shape[1], w.shape[2], w.shape[3]
	oh := ConvOutDim(h, kh, spec.Stride, spec.Pad)
	ow := ConvOutDim(wd, kw, spec.Stride, spec.Pad)
	if len(dx) != inC*h*wd || len(g) != outC*oh*ow {
		failf("Conv2DBackwardInputInto buffers %d/%d do not match input %v and output [%d,%d,%d]", len(dx), len(g), inShape, outC, oh, ow)
	}
	clear(dx)
	plane, patch := h*wd, inC*kh*kw
	for oc := 0; oc < outC; oc++ {
		wOC := w.data[oc*patch : (oc+1)*patch]
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*spec.Stride - spec.Pad
			ky0, ky1 := clampKernelRange(iy0, kh, h)
			grow := g[(oc*oh+oy)*ow : (oc*oh+oy+1)*ow]
			for ox, gv := range grow {
				if gv == 0 {
					continue
				}
				ix0 := ox*spec.Stride - spec.Pad
				kx0, kx1 := clampKernelRange(ix0, kw, wd)
				n := kx1 - kx0
				if n == 0 {
					continue // the window lies in the padding
				}
				for ic := 0; ic < inC; ic++ {
					for ky := ky0; ky < ky1; ky++ {
						drow := dx[ic*plane+(iy0+ky)*wd+ix0+kx0:][:n]
						wrow := wOC[(ic*kh+ky)*kw+kx0:][:n]
						for kx, wv := range wrow {
							drow[kx] += gv * wv
						}
					}
				}
			}
		}
	}
}

// Conv2DBackwardKernel returns ∂L/∂w given upstream gradient g
// [outC,outH,outW] for Conv2D(x, w, spec) with kernel shape kShape.
func Conv2DBackwardKernel(g, x *Tensor, kShape []int, spec ConvSpec) *Tensor {
	outC, inC, kh, kw := kShape[0], kShape[1], kShape[2], kShape[3]
	h, wd := x.shape[1], x.shape[2]
	oh, ow := g.shape[1], g.shape[2]
	dw := newResult(g, x, outC, inC, kh, kw)
	for oc := 0; oc < outC; oc++ {
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*spec.Stride - spec.Pad
			ky0, ky1 := clampKernelRange(iy0, kh, h)
			for ox := 0; ox < ow; ox++ {
				gv := g.data[(oc*oh+oy)*ow+ox]
				if gv == 0 {
					continue
				}
				ix0 := ox*spec.Stride - spec.Pad
				kx0, kx1 := clampKernelRange(ix0, kw, wd)
				for ic := 0; ic < inC; ic++ {
					for ky := ky0; ky < ky1; ky++ {
						iy := iy0 + ky
						xrow := x.data[(ic*h+iy)*wd : (ic*h+iy+1)*wd]
						wrow := dw.data[((oc*inC+ic)*kh+ky)*kw : ((oc*inC+ic)*kh+ky+1)*kw]
						for kx := kx0; kx < kx1; kx++ {
							wrow[kx] += gv * xrow[ix0+kx]
						}
					}
				}
			}
		}
	}
	return dw
}

// SumPool2D sums non-overlapping k×k windows of x [C,H,W] per channel,
// producing [C,H/k,W/k]. H and W must be divisible by k.
func SumPool2D(x *Tensor, k int) *Tensor {
	if x.Rank() != 3 {
		failf("SumPool2D requires rank-3 input, got %v", x.shape)
	}
	c, h, w := x.shape[0], x.shape[1], x.shape[2]
	if h%k != 0 || w%k != 0 {
		failf("SumPool2D input %v not divisible by window %d", x.shape, k)
	}
	oh, ow := h/k, w/k
	out := NewLike(x, c, oh, ow)
	for ci := 0; ci < c; ci++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				s := 0.0
				for ky := 0; ky < k; ky++ {
					row := x.data[(ci*h+oy*k+ky)*w : (ci*h+oy*k+ky+1)*w]
					for kx := 0; kx < k; kx++ {
						s += row[ox*k+kx]
					}
				}
				out.data[(ci*oh+oy)*ow+ox] = s
			}
		}
	}
	return out
}

// SumPool2DBackward distributes upstream gradient g [C,H/k,W/k] back over
// the k×k windows of the input shape [C,H,W].
func SumPool2DBackward(g *Tensor, inShape []int, k int) *Tensor {
	c, h, w := inShape[0], inShape[1], inShape[2]
	oh, ow := g.shape[1], g.shape[2]
	dx := NewLike(g, c, h, w)
	for ci := 0; ci < c; ci++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				gv := g.data[(ci*oh+oy)*ow+ox]
				if gv == 0 {
					continue
				}
				for ky := 0; ky < k; ky++ {
					row := dx.data[(ci*h+oy*k+ky)*w : (ci*h+oy*k+ky+1)*w]
					for kx := 0; kx < k; kx++ {
						row[ox*k+kx] += gv
					}
				}
			}
		}
	}
	return dx
}
