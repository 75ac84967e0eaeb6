package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func TestConvOutDim(t *testing.T) {
	cases := []struct{ in, k, stride, pad, want int }{
		{5, 3, 1, 0, 3},
		{5, 3, 1, 1, 5},
		{5, 3, 2, 0, 2},
		{34, 5, 2, 0, 15},
		{128, 4, 4, 0, 32},
	}
	for _, c := range cases {
		if got := ConvOutDim(c.in, c.k, c.stride, c.pad); got != c.want {
			t.Errorf("ConvOutDim(%d,%d,%d,%d) = %d, want %d", c.in, c.k, c.stride, c.pad, got, c.want)
		}
	}
}

func TestConv2DKnown(t *testing.T) {
	// 1 channel, 3×3 input, 2×2 kernel of ones: output sums 2×2 windows.
	x := FromSlice([]float64{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 3, 3)
	w := Full(1, 1, 1, 2, 2)
	got := Conv2D(x, w, ConvSpec{Stride: 1})
	want := FromSlice([]float64{12, 16, 24, 28}, 1, 2, 2)
	if !Equal(got, want, 1e-12) {
		t.Errorf("Conv2D = %v, want %v", got, want)
	}
}

func TestConv2DPadding(t *testing.T) {
	// 3×3 ones convolved with a 3×3 ones kernel at pad 1: each output
	// counts how many valid input pixels its window covers.
	x := Full(1, 1, 3, 3)
	w := Full(1, 1, 1, 3, 3)
	got := Conv2D(x, w, ConvSpec{Stride: 1, Pad: 1})
	want := FromSlice([]float64{
		4, 6, 4,
		6, 9, 6,
		4, 6, 4,
	}, 1, 3, 3)
	if !Equal(got, want, 1e-12) {
		t.Errorf("Conv2D with pad = %v, want %v", got, want)
	}
}

func TestConv2DStride(t *testing.T) {
	x := FromSlice([]float64{
		1, 0, 2, 0,
		0, 0, 0, 0,
		3, 0, 4, 0,
		0, 0, 0, 0,
	}, 1, 4, 4)
	w := Full(1, 1, 1, 1, 1)
	got := Conv2D(x, w, ConvSpec{Stride: 2})
	want := FromSlice([]float64{1, 2, 3, 4}, 1, 2, 2)
	if !Equal(got, want, 1e-12) {
		t.Errorf("strided Conv2D = %v, want %v", got, want)
	}
}

func TestConv2DMultiChannel(t *testing.T) {
	// Two input channels summed by a kernel with per-channel weights 1 and 10.
	x := New(2, 2, 2)
	x.Set(1, 0, 0, 0)
	x.Set(1, 1, 0, 0)
	w := New(1, 2, 1, 1)
	w.Set(1, 0, 0, 0, 0)
	w.Set(10, 0, 1, 0, 0)
	got := Conv2D(x, w, ConvSpec{Stride: 1})
	if got.At(0, 0, 0) != 11 {
		t.Errorf("multichannel conv = %g, want 11", got.At(0, 0, 0))
	}
}

func TestConv2DChannelMismatchPanics(t *testing.T) {
	defer mustPanic(t, "channel mismatch")
	Conv2D(New(2, 3, 3), New(1, 1, 2, 2), ConvSpec{Stride: 1})
}

// Gradient identities checked by finite differences: the adjoint pair
// (BackwardInput, BackwardKernel) must match numerical derivatives of a
// scalar loss L = Σ g⊙Conv2D(x,w).
func TestConv2DBackwardFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	specs := []ConvSpec{{Stride: 1}, {Stride: 2}, {Stride: 1, Pad: 1}}
	for _, spec := range specs {
		x := RandNormal(rng, 0, 1, 2, 5, 5)
		w := RandNormal(rng, 0, 1, 3, 2, 3, 3)
		out := Conv2D(x, w, spec)
		g := RandNormal(rng, 0, 1, out.Shape()...)

		loss := func() float64 { return Dot(Conv2D(x, w, spec), g) }

		dx := Conv2DBackwardInput(g, w, x.Shape(), spec)
		dw := Conv2DBackwardKernel(g, x, w.Shape(), spec)

		const eps = 1e-6
		for _, probe := range []int{0, x.Len() / 2, x.Len() - 1} {
			orig := x.Data()[probe]
			x.Data()[probe] = orig + eps
			up := loss()
			x.Data()[probe] = orig - eps
			down := loss()
			x.Data()[probe] = orig
			num := (up - down) / (2 * eps)
			if math.Abs(num-dx.Data()[probe]) > 1e-5 {
				t.Errorf("spec %+v: dL/dx[%d] = %g, finite diff %g", spec, probe, dx.Data()[probe], num)
			}
		}
		for _, probe := range []int{0, w.Len() / 2, w.Len() - 1} {
			orig := w.Data()[probe]
			w.Data()[probe] = orig + eps
			up := loss()
			w.Data()[probe] = orig - eps
			down := loss()
			w.Data()[probe] = orig
			num := (up - down) / (2 * eps)
			if math.Abs(num-dw.Data()[probe]) > 1e-5 {
				t.Errorf("spec %+v: dL/dw[%d] = %g, finite diff %g", spec, probe, dw.Data()[probe], num)
			}
		}
	}
}

func TestSumPool2D(t *testing.T) {
	x := FromSlice([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 4, 4)
	got := SumPool2D(x, 2)
	want := FromSlice([]float64{14, 22, 46, 54}, 1, 2, 2)
	if !Equal(got, want, 1e-12) {
		t.Errorf("SumPool2D = %v, want %v", got, want)
	}
}

func TestSumPool2DBackward(t *testing.T) {
	g := FromSlice([]float64{1, 2, 3, 4}, 1, 2, 2)
	dx := SumPool2DBackward(g, []int{1, 4, 4}, 2)
	// Each gradient value spreads to its 2×2 window.
	want := FromSlice([]float64{
		1, 1, 2, 2,
		1, 1, 2, 2,
		3, 3, 4, 4,
		3, 3, 4, 4,
	}, 1, 4, 4)
	if !Equal(dx, want, 1e-12) {
		t.Errorf("SumPool2DBackward = %v, want %v", dx, want)
	}
}

func TestSumPool2DIndivisiblePanics(t *testing.T) {
	defer mustPanic(t, "indivisible pooling")
	SumPool2D(New(1, 5, 4), 2)
}

// Property: pooling preserves total mass: Σ pool(x) == Σ x.
func TestSumPoolMassConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		k := 1 + rng.Intn(3)
		c := 1 + rng.Intn(3)
		h := k * (1 + rng.Intn(4))
		w := k * (1 + rng.Intn(4))
		x := RandNormal(rng, 0, 1, c, h, w)
		if math.Abs(Sum(SumPool2D(x, k))-Sum(x)) > 1e-9 {
			t.Fatalf("trial %d: pooling lost mass", trial)
		}
	}
}

// Property: convolution is linear in the input.
func TestConv2DLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 15; trial++ {
		x := RandNormal(rng, 0, 1, 1, 4, 4)
		y := RandNormal(rng, 0, 1, 1, 4, 4)
		w := RandNormal(rng, 0, 1, 2, 1, 2, 2)
		spec := ConvSpec{Stride: 1}
		lhs := Conv2D(Add(x, y), w, spec)
		rhs := Add(Conv2D(x, w, spec), Conv2D(y, w, spec))
		if !Equal(lhs, rhs, 1e-9) {
			t.Fatalf("trial %d: conv not linear", trial)
		}
	}
}

// TestConv2DBackwardInputPaddingOnlyWindows pins the input gradient when
// padding exceeds the kernel, so some windows read only padding: those
// windows contribute nothing, and every in-bounds tap gets its term.
func TestConv2DBackwardInputPaddingOnlyWindows(t *testing.T) {
	spec := ConvSpec{Stride: 1, Pad: 2}
	w := FromSlice([]float64{2}, 1, 1, 1, 1)
	g := Full(1, 1, 6, 6) // 2×2 input, 1×1 kernel, pad 2 → 6×6 output
	dx := Conv2DBackwardInput(g, w, []int{1, 2, 2}, spec)
	for i, v := range dx.Data() {
		if v != 2 {
			t.Fatalf("dx[%d] = %v, want 2", i, v)
		}
	}
}
