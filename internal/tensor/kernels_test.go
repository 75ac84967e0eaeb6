package tensor

import (
	"math/rand"
	"testing"
)

// bitEqual compares two tensors elementwise with ==, which treats -0.0
// and +0.0 as equal — exactly the guarantee the fast kernels make (see
// the im2col numerical contract).
func bitEqual(a, b *Tensor) bool {
	if !SameShape(a, b) {
		return false
	}
	for i := range a.data {
		if a.data[i] != b.data[i] {
			return false
		}
	}
	return true
}

func TestEquivConv2DIm2ColMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cases := []struct {
		inC, h, w, outC, kh, kw int
		spec                    ConvSpec
	}{
		{1, 5, 5, 1, 3, 3, ConvSpec{Stride: 1, Pad: 0}},
		{2, 11, 11, 3, 3, 3, ConvSpec{Stride: 2, Pad: 0}},
		{3, 8, 6, 2, 3, 2, ConvSpec{Stride: 1, Pad: 2}},
		{2, 16, 16, 4, 5, 5, ConvSpec{Stride: 3, Pad: 1}},
		{1, 4, 4, 1, 1, 1, ConvSpec{Stride: 1, Pad: 0}},
	}
	for _, c := range cases {
		x := RandNormal(rng, 0, 1, c.inC, c.h, c.w)
		w := RandNormal(rng, 0, 1, c.outC, c.inC, c.kh, c.kw)
		if !bitEqual(Conv2DIm2Col(x, w, c.spec), Conv2D(x, w, c.spec)) {
			t.Errorf("Conv2DIm2Col diverges from Conv2D for %+v", c)
		}
	}
}

func TestConv2DColIntoReusedBufferNeedsNoClearing(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	spec := ConvSpec{Stride: 1, Pad: 1}
	w := RandNormal(rng, 0, 1, 2, 1, 3, 3)
	col := make([]float64, Im2ColLen(1, 4, 4, 3, 3, spec))
	for i := range col {
		col[i] = 99 // dirty buffer
	}
	x := RandNormal(rng, 0, 1, 1, 4, 4)
	out := make([]float64, 2*4*4)
	Im2Col(col, x.Data(), 1, 4, 4, 3, 3, spec)
	Conv2DColInto(out, col, w)
	want := Conv2D(x, w, spec)
	for i, v := range out {
		if v != want.Data()[i] {
			t.Fatalf("dirty-buffer conv output[%d] = %g, want %g", i, v, want.Data()[i])
		}
	}
}

func TestIm2ColShapePanics(t *testing.T) {
	checkPanic(t, true, func() { Conv2DIm2Col(New(2, 4, 4), New(1, 3, 3, 3), ConvSpec{Stride: 1}) })
	checkPanic(t, true, func() { Conv2DColInto(make([]float64, 3), make([]float64, 5), New(1, 1, 2, 2)) })
	checkPanic(t, true, func() { Im2Col(make([]float64, 1), make([]float64, 4), 1, 2, 2, 1, 1, ConvSpec{Stride: 1}) })
}
