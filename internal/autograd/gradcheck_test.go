package autograd

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/repro/snntest/internal/tensor"
)

// gradCase checks one op's Backward against central finite differences.
// build constructs a scalar-rooted graph from the leaf under test; eval,
// when non-nil, is the smooth primitive the backward pass is defined
// against (needed for surrogate-gradient ops whose forward is a step
// function); nil eval differentiates the forward pass itself.
type gradCase struct {
	op      string // autograd function under test, for completeness audit
	variant string
	x       *tensor.Tensor
	build   func(*Node) *Node
	eval    func(*tensor.Tensor) float64
	tol     float64
}

// wsum reduces an op output to a scalar with fixed distinct weights so a
// per-element sign or routing error cannot cancel out.
func wsum(a *Node, w *tensor.Tensor) *Node { return Sum(MulConstVec(a, w)) }

// awayFromZero samples values with |v| ∈ [0.2, 1.2] for ops whose
// (sub)derivative is discontinuous at 0 (Abs, Relu): finite differences
// straddling the kink would disagree with any one-sided convention.
func awayFromZero(rng *rand.Rand, n int) *tensor.Tensor {
	t := tensor.New(n)
	for i := range t.Data() {
		v := 0.2 + rng.Float64()
		if rng.Intn(2) == 0 {
			v = -v
		}
		t.Data()[i] = v
	}
	return t
}

func gradCases() []gradCase {
	rng := rand.New(rand.NewSource(42))
	w8 := tensor.RandNormal(rng, 0, 1, 8)
	w12 := tensor.RandNormal(rng, 0, 1, 12)
	x8 := tensor.RandNormal(rng, 0, 1, 8)
	noise := tensor.RandNormal(rng, 0, 1, 8)

	convX := tensor.RandNormal(rng, 0, 1, 2, 5, 5)
	convK := tensor.RandNormal(rng, 0, 0.5, 3, 2, 3, 3)
	convW := tensor.RandNormal(rng, 0, 1, 3, 3, 3) // conv output weights
	spec := tensor.ConvSpec{Stride: 1}

	mvW := tensor.RandNormal(rng, 0, 1, 3, 4)
	mvX := tensor.RandNormal(rng, 0, 1, 4)
	w3 := tensor.RandNormal(rng, 0, 1, 3)

	poolX := tensor.RandNormal(rng, 0, 1, 2, 4, 4)
	poolW := tensor.RandNormal(rng, 0, 1, 2, 2, 2)
	reshapeW := tensor.RandNormal(rng, 0, 1, 4, 8)

	// Sparse weights for MaskedRowVariance: row 3 has a single non-zero
	// entry, exercising the <2-support zero-variance branch.
	mrvW := tensor.RandNormal(rng, 0, 1, 4, 6)
	for j := 0; j < 6; j += 3 {
		mrvW.Data()[0*6+j] = 0
	}
	for j := 1; j < 6; j++ {
		mrvW.Data()[3*6+j] = 0
	}
	mrvX := tensor.RandNormal(rng, 1, 0.5, 6)
	w4 := tensor.RandNormal(rng, 0, 1, 4)

	spikeIn := awayFromZero(rng, 8) // |u−θ| ≥ 0.2 with θ=0 below

	// A three-output MultiOp (fanOut) reached in the order o2, o0, o1.
	fanC := []*tensor.Tensor{tensor.RandNormal(rng, 0, 1, 8), tensor.RandNormal(rng, 0, 1, 8), tensor.RandNormal(rng, 0, 1, 8)}

	return []gradCase{
		{op: "Add", x: x8, build: func(a *Node) *Node { return wsum(Add(a, Square(a)), w8) }},
		{op: "AddN", x: x8, build: func(a *Node) *Node { return wsum(AddN(a, Square(a), Scale(a, 0.5)), w8) }},
		{op: "Sub", x: x8, build: func(a *Node) *Node { return wsum(Sub(Square(a), a), w8) }},
		{op: "Mul", x: x8, build: func(a *Node) *Node { return wsum(Mul(a, AddScalar(a, 1)), w8) }},
		{op: "Scale", x: x8, build: func(a *Node) *Node { return wsum(Scale(a, -1.7), w8) }},
		{op: "AddScalar", x: x8, build: func(a *Node) *Node { return wsum(AddScalar(a, 0.3), w8) }},
		{op: "Neg", x: x8, build: func(a *Node) *Node { return wsum(Neg(a), w8) }},
		{op: "Abs", x: awayFromZero(rng, 8), build: func(a *Node) *Node { return wsum(Abs(a), w8) }},
		{op: "Relu", x: awayFromZero(rng, 8), build: func(a *Node) *Node { return wsum(Relu(a), w8) }},
		{op: "Square", x: x8, build: func(a *Node) *Node { return wsum(Square(a), w8) }},
		{op: "Sum", x: x8, build: func(a *Node) *Node { return Sum(Mul(a, a)) }},
		{op: "Mean", x: x8, build: func(a *Node) *Node { return Mean(Square(a)) }},
		{op: "MatVec", variant: "x", x: mvX, build: func(a *Node) *Node { return wsum(MatVec(Const(mvW), a), w3) }},
		{op: "MatVec", variant: "w", x: mvW, build: func(a *Node) *Node { return wsum(MatVec(a, Const(mvX)), w3) }},
		{op: "Conv2D", variant: "input", x: convX, build: func(a *Node) *Node { return wsum(Conv2D(a, Const(convK), spec), convW) }},
		{op: "Conv2D", variant: "kernel", x: convK, build: func(a *Node) *Node { return wsum(Conv2D(Const(convX), a, spec), convW) }},
		{op: "SumPool2D", x: poolX, build: func(a *Node) *Node { return wsum(SumPool2D(a, 2), poolW) }},
		{op: "Slice", x: w12, build: func(a *Node) *Node { return wsum(Slice(a, 3, 8, 8), w8) }},
		{op: "MulConstVec", x: x8, build: func(a *Node) *Node { return Sum(MulConstVec(a, w8)) }},
		{op: "Reshape", x: poolX, build: func(a *Node) *Node { return wsum(Reshape(a, 4, 8), reshapeW) }},
		{op: "MaskedRowVariance", x: mrvX, build: func(a *Node) *Node { return wsum(MaskedRowVariance(mrvW, a), w4) }},
		{op: "SoftmaxCrossEntropy", x: tensor.RandNormal(rng, 0, 1, 5), build: func(a *Node) *Node { return SoftmaxCrossEntropy(a, 2) }},
		{op: "GumbelSigmoid", x: x8, build: func(a *Node) *Node { return wsum(GumbelSigmoid(a, noise, 0.7), w8) }},
		{op: "NewMultiOp", x: x8, build: func(a *Node) *Node {
			o := fanOut(a, fanC)
			return AddN(wsum(o[2], w8), wsum(Mul(o[0], o[1]), w8))
		}},
		{
			// STE's forward is Heaviside; its backward is defined as the
			// identity Jacobian, so the FD reference is the identity map.
			op: "STE", x: awayFromZero(rng, 8),
			build: func(a *Node) *Node { return wsum(STE(a, 0), w8) },
			eval: func(xt *tensor.Tensor) float64 {
				s := 0.0
				for i, v := range xt.Data() {
					s += w8.Data()[i] * v
				}
				return s
			},
		},
		{
			// Spike's backward substitutes the fast-sigmoid surrogate
			// 1/(1+s|u−θ|)², the exact derivative of F(u) = (u−θ)/(1+s|u−θ|);
			// the FD reference is therefore F, not the Heaviside forward.
			op: "Spike", x: spikeIn,
			build: func(a *Node) *Node { return wsum(Spike(a, 0, SurrogateScale), w8) },
			eval: func(xt *tensor.Tensor) float64 {
				s := 0.0
				for i, v := range xt.Data() {
					s += w8.Data()[i] * v / (1 + SurrogateScale*math.Abs(v))
				}
				return s
			},
		},
	}
}

// TestGradCheckAllOps compares every op's Backward gradient against
// central finite differences on fixed-seed random tensors.
func TestGradCheckAllOps(t *testing.T) {
	for _, c := range gradCases() {
		name := c.op
		if c.variant != "" {
			name += "/" + c.variant
		}
		t.Run(name, func(t *testing.T) {
			leaf := Leaf(c.x.Clone())
			root := c.build(leaf)
			if root.Value.Len() != 1 {
				t.Fatalf("build must produce a scalar root, got shape %v", root.Value.Shape())
			}
			if err := Backward(root); err != nil {
				t.Fatal(err)
			}
			eval := c.eval
			if eval == nil {
				eval = func(xt *tensor.Tensor) float64 { return c.build(Leaf(xt)).Value.Data()[0] }
			}
			tol := c.tol
			if tol == 0 {
				tol = 1e-4
			}
			const h = 1e-5
			for i := range c.x.Data() {
				xp, xm := c.x.Clone(), c.x.Clone()
				xp.Data()[i] += h
				xm.Data()[i] -= h
				fd := (eval(xp) - eval(xm)) / (2 * h)
				got := leaf.Grad.Data()[i]
				if d := math.Abs(got - fd); d > tol*(1+math.Abs(fd)) {
					t.Errorf("element %d: analytic %.8g vs finite-difference %.8g (|Δ|=%.2g)", i, got, fd, d)
				}
			}
		})
	}
}

// TestGradCheckCoversAllOps audits the package source: every exported
// op constructor (function returning *Node or *MultiOp, excluding the
// Leaf/Const graph-input constructors) must appear in gradCases, so a
// newly added op cannot ship without a gradient check.
func TestGradCheckCoversAllOps(t *testing.T) {
	covered := map[string]bool{}
	for _, c := range gradCases() {
		covered[c.op] = true
	}
	inputCtors := map[string]bool{"Leaf": true, "Const": true}

	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for fname, file := range pkg.Files {
			if strings.HasSuffix(fname, "_test.go") {
				continue
			}
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv != nil || !fd.Name.IsExported() || !returnsOp(fd) {
					continue
				}
				if inputCtors[fd.Name.Name] {
					continue
				}
				if !covered[fd.Name.Name] {
					t.Errorf("op %s (%s) has no gradient check in gradCases", fd.Name.Name, fname)
				}
			}
		}
	}
}

// returnsOp reports whether fd's results include *Node or *MultiOp.
func returnsOp(fd *ast.FuncDecl) bool {
	if fd.Type.Results == nil {
		return false
	}
	for _, r := range fd.Type.Results.List {
		if star, ok := r.Type.(*ast.StarExpr); ok {
			if id, ok := star.X.(*ast.Ident); ok && (id.Name == "Node" || id.Name == "MultiOp") {
				return true
			}
		}
	}
	return false
}
