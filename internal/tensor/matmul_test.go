package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func TestMatVecKnown(t *testing.T) {
	w := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	got := MatVec(w, vec(7, 8, 9))
	want := vec(50, 122)
	if !Equal(got, want, 0) {
		t.Errorf("MatVec = %v, want %v", got, want)
	}
}

func TestMatVecTIsTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := RandNormal(rng, 0, 1, 4, 6)
	g := RandNormal(rng, 0, 1, 4)
	got := MatVecT(w, g)
	// Reference: explicit transpose multiply.
	want := New(6)
	for j := 0; j < 6; j++ {
		s := 0.0
		for i := 0; i < 4; i++ {
			s += w.At(i, j) * g.At(i)
		}
		want.Set(s, j)
	}
	if !Equal(got, want, 1e-12) {
		t.Errorf("MatVecT = %v, want %v", got, want)
	}
}

func TestOuter(t *testing.T) {
	g := vec(1, 2)
	x := vec(3, 4, 5)
	got := Outer(g, x)
	want := FromSlice([]float64{3, 4, 5, 6, 8, 10}, 2, 3)
	if !Equal(got, want, 0) {
		t.Errorf("Outer = %v, want %v", got, want)
	}
}

func TestDot(t *testing.T) {
	if d := Dot(vec(1, 2, 3), vec(4, 5, 6)); d != 32 {
		t.Errorf("Dot = %g, want 32", d)
	}
}

// Property: MatVec is linear: W(αx+βy) = αWx + βWy.
func TestMatVecLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		rows := 1 + rng.Intn(5)
		cols := 1 + rng.Intn(5)
		w := RandNormal(rng, 0, 1, rows, cols)
		x := RandNormal(rng, 0, 1, cols)
		y := RandNormal(rng, 0, 1, cols)
		al, be := rng.NormFloat64(), rng.NormFloat64()
		lhs := MatVec(w, Add(Scale(x, al), Scale(y, be)))
		rhs := Add(Scale(MatVec(w, x), al), Scale(MatVec(w, y), be))
		if !Equal(lhs, rhs, 1e-9) {
			t.Fatalf("trial %d: linearity violated", trial)
		}
	}
}

// Property: ⟨Wx, g⟩ == ⟨x, Wᵀg⟩ (adjoint identity used by autograd).
func TestMatVecAdjointProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 25; trial++ {
		rows := 1 + rng.Intn(5)
		cols := 1 + rng.Intn(5)
		w := RandNormal(rng, 0, 1, rows, cols)
		x := RandNormal(rng, 0, 1, cols)
		g := RandNormal(rng, 0, 1, rows)
		lhs := Dot(MatVec(w, x), g)
		rhs := Dot(x, MatVecT(w, g))
		if math.Abs(lhs-rhs) > 1e-9 {
			t.Fatalf("trial %d: adjoint identity violated: %g vs %g", trial, lhs, rhs)
		}
	}
}
