package tensor

import (
	"math/rand"
	"strings"
	"testing"
)

// checkPanic runs fn and asserts it panics through the failf chokepoint
// exactly when want is true: every bounds violation must surface as a
// controlled "tensor: " panic, never a raw runtime error.
func checkPanic(t *testing.T, want bool, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if want {
			s, ok := r.(string)
			if !ok || !strings.HasPrefix(s, "tensor: ") {
				t.Fatalf("expected controlled tensor panic, got %v", r)
			}
		} else if r != nil {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	fn()
}

// FuzzConv2DIm2Col differentiates the im2col convolution against the
// naive Conv2D over arbitrary geometries, strides and paddings. Equality
// is elementwise == (padding taps contribute exact zero terms, which can
// at most flip the sign of a zero output — invisible to ==).
func FuzzConv2DIm2Col(f *testing.F) {
	f.Add(byte(2), byte(11), byte(11), byte(3), byte(3), byte(3), byte(2), byte(0), int64(1))
	f.Add(byte(1), byte(5), byte(7), byte(2), byte(3), byte(2), byte(1), byte(2), int64(2))
	f.Add(byte(3), byte(8), byte(8), byte(1), byte(5), byte(5), byte(3), byte(1), int64(3))
	f.Add(byte(1), byte(1), byte(1), byte(1), byte(1), byte(1), byte(1), byte(0), int64(4))
	f.Fuzz(func(t *testing.T, cb, hb, wb, ob, khb, kwb, sb, pb byte, seed int64) {
		inC, h, w := int(cb)%4+1, int(hb)%16+1, int(wb)%16+1
		outC, kh, kw := int(ob)%4+1, int(khb)%6+1, int(kwb)%6+1
		spec := ConvSpec{Stride: int(sb)%4 + 1, Pad: int(pb) % 4}
		if ConvOutDim(h, kh, spec.Stride, spec.Pad) <= 0 || ConvOutDim(w, kw, spec.Stride, spec.Pad) <= 0 {
			return // geometry with no output; both kernels reject it
		}
		rng := rand.New(rand.NewSource(seed))
		x := RandBernoulli(rng, 0.3, inC, h, w) // spike-like inputs with exact zeros
		k := RandNormal(rng, 0, 1, outC, inC, kh, kw)
		got, want := Conv2DIm2Col(x, k, spec), Conv2D(x, k, spec)
		for i := range want.Data() {
			if got.Data()[i] != want.Data()[i] {
				t.Fatalf("im2col[%d] = %g, naive = %g (in=[%d,%d,%d] k=[%d,%d,%d,%d] %+v)",
					i, got.Data()[i], want.Data()[i], inC, h, w, outC, inC, kh, kw, spec)
			}
		}
	})
}

// FuzzAccessors drives the bounds-checked accessors Step, RawRange and
// ElemPtr with arbitrary shapes and offsets, asserting the in-range calls
// return aliasing views of the right length and the out-of-range calls
// fail through failf.
func FuzzAccessors(f *testing.F) {
	f.Add(byte(3), byte(4), 1, 0, 6, 2)
	f.Add(byte(1), byte(1), 0, 0, 1, 0)
	f.Add(byte(2), byte(5), -1, 4, 100, -7)
	f.Add(byte(4), byte(2), 9, 1<<62, 1<<62, 8)
	f.Fuzz(func(t *testing.T, d0, d1 byte, stepIdx, start, n, off int) {
		rows := int(d0%5) + 1
		cols := int(d1%5) + 1
		tt := New(rows, cols)
		for i := range tt.Data() {
			tt.Data()[i] = float64(i)
		}
		total := rows * cols

		checkPanic(t, stepIdx < 0 || stepIdx >= rows, func() {
			s := tt.Step(stepIdx)
			if s.Rank() != 1 || s.Len() != cols {
				t.Fatalf("Step shape %v, want [%d]", s.Shape(), cols)
			}
			s.Data()[0] = -1
			if tt.At(stepIdx, 0) != -1 {
				t.Fatal("Step view must alias the parent data")
			}
			tt.Set(float64(stepIdx*cols), stepIdx, 0)
		})

		checkPanic(t, start < 0 || start > total || n < 0 || n > total-start, func() {
			w := tt.RawRange(start, n)
			if len(w) != n || cap(w) != n {
				t.Fatalf("RawRange len/cap = %d/%d, want %d/%d", len(w), cap(w), n, n)
			}
			for i, v := range w {
				if v != float64(start+i) {
					t.Fatalf("RawRange[%d] = %g, want %d", i, v, start+i)
				}
			}
		})

		checkPanic(t, off < 0 || off >= total, func() {
			p := tt.ElemPtr(off)
			*p = 42
			if tt.Data()[off] != 42 {
				t.Fatal("ElemPtr must alias the backing element")
			}
		})
	})
}
