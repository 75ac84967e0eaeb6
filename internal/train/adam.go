// Package train provides gradient-based optimization for spiking networks:
// the Adam optimizer (used both for SNN training and for the paper's
// test-input optimization), annealing schedules for the learning rate and
// Gumbel-Softmax temperature, and a surrogate-gradient BPTT training loop
// with rate-coded classification loss.
package train

import (
	"math"

	ag "github.com/repro/snntest/internal/autograd"
	"github.com/repro/snntest/internal/tensor"
)

// Adam is the Adam optimizer over a fixed set of autograd leaves. Leaves'
// Value tensors are updated in place; their Grad tensors supply the raw
// gradients and are cleared by ZeroGrad.
type Adam struct {
	LR    float64
	Beta1 float64
	Beta2 float64
	Eps   float64

	leaves []*ag.Node
	m, v   []*tensor.Tensor
	step   int
}

// NewAdam creates an Adam optimizer with the standard moment coefficients
// (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
func NewAdam(leaves []*ag.Node, lr float64) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, leaves: leaves}
	for _, l := range leaves {
		a.m = append(a.m, tensor.New(l.Value.Shape()...))
		a.v = append(a.v, tensor.New(l.Value.Shape()...))
	}
	return a
}

// Step applies one Adam update using each leaf's accumulated gradient.
func (a *Adam) Step() {
	a.step++
	c1 := 1 - math.Pow(a.Beta1, float64(a.step))
	c2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for i, l := range a.leaves {
		p, g := l.Value.Data(), l.Grad.Data()
		m, v := a.m[i].Data(), a.v[i].Data()
		for j := range p {
			m[j] = a.Beta1*m[j] + (1-a.Beta1)*g[j]
			v[j] = a.Beta2*v[j] + (1-a.Beta2)*g[j]*g[j]
			mHat := m[j] / c1
			vHat := v[j] / c2
			p[j] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
		}
	}
}

// ZeroGrad clears every leaf's accumulated gradient.
func (a *Adam) ZeroGrad() {
	for _, l := range a.leaves {
		l.ZeroGrad()
	}
}
