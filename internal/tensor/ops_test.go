package tensor

import (
	"math"
	"testing"
)

func vec(vals ...float64) *Tensor { return FromSlice(vals, len(vals)) }

func TestAddSubMul(t *testing.T) {
	a := vec(1, 2, 3)
	b := vec(4, 5, 6)
	if got := Add(a, b); !Equal(got, vec(5, 7, 9), 0) {
		t.Errorf("Add = %v", got)
	}
	if got := Sub(a, b); !Equal(got, vec(-3, -3, -3), 0) {
		t.Errorf("Sub = %v", got)
	}
	if got := Mul(a, b); !Equal(got, vec(4, 10, 18), 0) {
		t.Errorf("Mul = %v", got)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer mustPanic(t, "Add with mismatched shapes")
	Add(vec(1), vec(1, 2))
}

func TestScaleNegAddScalar(t *testing.T) {
	a := vec(1, -2)
	if got := Scale(a, 3); !Equal(got, vec(3, -6), 0) {
		t.Errorf("Scale = %v", got)
	}
	if got := Neg(a); !Equal(got, vec(-1, 2), 0) {
		t.Errorf("Neg = %v", got)
	}
	if got := AddScalar(a, 10); !Equal(got, vec(11, 8), 0) {
		t.Errorf("AddScalar = %v", got)
	}
}

func TestAbsReluSquare(t *testing.T) {
	a := vec(-2, 0, 3)
	if got := Abs(a); !Equal(got, vec(2, 0, 3), 0) {
		t.Errorf("Abs = %v", got)
	}
	if got := Relu(a); !Equal(got, vec(0, 0, 3), 0) {
		t.Errorf("Relu = %v", got)
	}
	if got := Square(a); !Equal(got, vec(4, 0, 9), 0) {
		t.Errorf("Square = %v", got)
	}
}

func TestHeaviside(t *testing.T) {
	got := Heaviside(vec(-1, 0.5, 2), 1.0)
	if !Equal(got, vec(0, 0, 1), 0) {
		t.Errorf("Heaviside = %v", got)
	}
	// Equality with the threshold does not fire (strict >).
	got = Heaviside(vec(1), 1.0)
	if got.Data()[0] != 0 {
		t.Error("Heaviside must be strict")
	}
}

func TestInPlaceOps(t *testing.T) {
	a := vec(1, 2)
	AddInPlace(a, vec(10, 20))
	if !Equal(a, vec(11, 22), 0) {
		t.Errorf("AddInPlace = %v", a)
	}
	ScaleInPlace(a, 0.5)
	if !Equal(a, vec(5.5, 11), 0) {
		t.Errorf("ScaleInPlace = %v", a)
	}
}

// TestNonZeroIndices pins the active-input scan's contract: ascending
// indices, -0.0 counted as zero, NaN and non-binary values counted as
// active, and a panic on a buffer shorter than the row.
func TestNonZeroIndices(t *testing.T) {
	x := []float64{0, 1, math.Copysign(0, -1), 0.5, math.NaN(), 0, -2}
	got := NonZeroIndices(make([]int32, len(x)), x)
	want := []int32{1, 3, 4, 6}
	if len(got) != len(want) {
		t.Fatalf("NonZeroIndices = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NonZeroIndices = %v, want %v", got, want)
		}
	}
	if n := len(NonZeroIndices(make([]int32, 3), make([]float64, 3))); n != 0 {
		t.Fatalf("silent row has %d active entries", n)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a buffer shorter than the row must panic")
		}
	}()
	NonZeroIndices(make([]int32, 2), x)
}
