package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSumMeanVariance(t *testing.T) {
	x := vec(1, 2, 3, 4)
	if Sum(x) != 10 {
		t.Errorf("Sum = %g", Sum(x))
	}
	if Mean(x) != 2.5 {
		t.Errorf("Mean = %g", Mean(x))
	}
	if math.Abs(Variance(x)-1.25) > 1e-12 {
		t.Errorf("Variance = %g, want 1.25", Variance(x))
	}
}

func TestEmptyReductions(t *testing.T) {
	e := New(0)
	if Mean(e) != 0 || Variance(e) != 0 {
		t.Error("empty Mean/Variance should be 0")
	}
	if !math.IsInf(Min(e), 1) || !math.IsInf(Max(e), -1) {
		t.Error("empty Min/Max should be ±Inf")
	}
	if ArgMax(e) != -1 {
		t.Error("empty ArgMax should be -1")
	}
}

func TestMinMaxArgMax(t *testing.T) {
	x := vec(3, -1, 7, 7, 2)
	if Min(x) != -1 || Max(x) != 7 {
		t.Errorf("Min/Max = %g/%g", Min(x), Max(x))
	}
	if ArgMax(x) != 2 {
		t.Errorf("ArgMax = %d, want first maximum (2)", ArgMax(x))
	}
}

func TestNorms(t *testing.T) {
	x := vec(3, -4)
	if L1Norm(x) != 7 {
		t.Errorf("L1Norm = %g", L1Norm(x))
	}
	if L1Diff(x, vec(1, -1)) != 5 {
		t.Errorf("L1Diff = %g", L1Diff(x, vec(1, -1)))
	}
}

func TestRowEqual(t *testing.T) {
	a := FromSlice([]float64{1, 0, 1, 1, 0, 0}, 3, 2)
	b := FromSlice([]float64{1, 0, 0, 1, 0, 0}, 3, 2)
	for r, want := range []bool{true, false, true} {
		if got := RowEqual(a, b, r); got != want {
			t.Errorf("RowEqual row %d = %v, want %v", r, got, want)
		}
	}
	if !RowEqual(a, a, 1) {
		t.Error("tensor must row-equal itself")
	}
	for _, bad := range []func(){
		func() { RowEqual(a, b, 3) },
		func() { RowEqual(a, b, -1) },
		func() { RowEqual(a, vec(1, 2), 0) },
		func() { RowEqual(Scalar(1), Scalar(1), 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on invalid RowEqual call")
				}
			}()
			bad()
		}()
	}
}

func TestSumCols(t *testing.T) {
	x := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if got := SumCols(x); !Equal(got, vec(5, 7, 9), 0) {
		t.Errorf("SumCols = %v", got)
	}
}

func TestSoftmax(t *testing.T) {
	s := Softmax(vec(1, 1, 1))
	for _, v := range s.Data() {
		if math.Abs(v-1.0/3) > 1e-12 {
			t.Errorf("uniform softmax = %v", s)
		}
	}
	// Stability for large logits: must not produce NaN.
	s = Softmax(vec(1000, 1001))
	if !s.AllFinite() {
		t.Error("softmax overflowed")
	}
	if math.Abs(Sum(s)-1) > 1e-12 {
		t.Errorf("softmax sum = %g", Sum(s))
	}
}

// quick-check property: the L1 norm satisfies the triangle inequality and
// absolute homogeneity on random vectors.
func TestNormPropertiesQuick(t *testing.T) {
	triangle := func(a, b [8]float64) bool {
		x := FromSlice(a[:], 8)
		y := FromSlice(b[:], 8)
		if !x.AllFinite() || !y.AllFinite() {
			return true
		}
		return L1Norm(Add(x, y)) <= L1Norm(x)+L1Norm(y)+1e-9
	}
	if err := quick.Check(triangle, nil); err != nil {
		t.Error(err)
	}
	homog := func(a [8]float64, s float64) bool {
		x := FromSlice(a[:], 8)
		if !x.AllFinite() || math.IsNaN(s) || math.IsInf(s, 0) || math.Abs(s) > 1e100 {
			return true
		}
		l := L1Norm(Scale(x, s))
		want := math.Abs(s) * L1Norm(x)
		return math.Abs(l-want) <= 1e-9*(1+want)
	}
	if err := quick.Check(homog, nil); err != nil {
		t.Error(err)
	}
}

// quick-check property: variance is translation invariant and scales
// quadratically.
func TestVariancePropertiesQuick(t *testing.T) {
	prop := func(a [6]float64, shift float64) bool {
		x := FromSlice(a[:], 6)
		if !x.AllFinite() || math.IsNaN(shift) || math.IsInf(shift, 0) || math.Abs(shift) > 1e6 {
			return true
		}
		for _, v := range a {
			if math.Abs(v) > 1e6 {
				return true
			}
		}
		v0 := Variance(x)
		v1 := Variance(AddScalar(x, shift))
		if math.Abs(v0-v1) > 1e-6*(1+v0) {
			return false
		}
		v2 := Variance(Scale(x, 2))
		return math.Abs(v2-4*v0) <= 1e-6*(1+v0)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestRandomFills(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	u := RandUniform(rng, -1, 1, 1000)
	if Min(u) < -1 || Max(u) >= 1 {
		t.Error("RandUniform out of range")
	}
	n := RandNormal(rng, 5, 0.1, 2000)
	if m := Mean(n); math.Abs(m-5) > 0.05 {
		t.Errorf("RandNormal mean = %g, want ≈5", m)
	}
	b := RandBernoulli(rng, 0.25, 4000)
	frac := Sum(b) / 4000
	if math.Abs(frac-0.25) > 0.05 {
		t.Errorf("RandBernoulli rate = %g, want ≈0.25", frac)
	}
	for _, v := range b.Data() {
		if v != 0 && v != 1 {
			t.Fatal("RandBernoulli produced non-binary value")
		}
	}
	k := KaimingNormal(rng, 100, 50, 100)
	std := math.Sqrt(Variance(k))
	if math.Abs(std-math.Sqrt(2.0/100)) > 0.02 {
		t.Errorf("Kaiming std = %g", std)
	}
}

func TestRandomDeterminism(t *testing.T) {
	a := RandNormal(rand.New(rand.NewSource(42)), 0, 1, 16)
	b := RandNormal(rand.New(rand.NewSource(42)), 0, 1, 16)
	if !Equal(a, b, 0) {
		t.Error("same seed must produce identical tensors")
	}
}
