package tensor

import (
	"math/rand"
	"testing"
)

func BenchmarkMatVec(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	w := RandNormal(rng, 0, 1, 256, 256)
	x := RandNormal(rng, 0, 1, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatVec(w, x)
	}
}

func BenchmarkConv2D(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := RandNormal(rng, 0, 1, 2, 34, 34)
	w := RandNormal(rng, 0, 1, 8, 2, 5, 5)
	spec := ConvSpec{Stride: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Conv2D(x, w, spec)
	}
}

func BenchmarkConv2DBackwardInput(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := RandNormal(rng, 0, 1, 2, 34, 34)
	w := RandNormal(rng, 0, 1, 8, 2, 5, 5)
	spec := ConvSpec{Stride: 2}
	g := RandNormal(rng, 0, 1, Conv2D(x, w, spec).Shape()...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Conv2DBackwardInput(g, w, x.Shape(), spec)
	}
}

func BenchmarkSumPool2D(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x := RandNormal(rng, 0, 1, 16, 32, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SumPool2D(x, 2)
	}
}

func BenchmarkL1Diff(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	x := RandNormal(rng, 0, 1, 1<<14)
	y := RandNormal(rng, 0, 1, 1<<14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		L1Diff(x, y)
	}
}
