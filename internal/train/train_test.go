package train

import (
	"math"
	"math/rand"
	"testing"

	ag "github.com/repro/snntest/internal/autograd"
	"github.com/repro/snntest/internal/dataset"
	"github.com/repro/snntest/internal/snn"
	"github.com/repro/snntest/internal/tensor"
)

func TestAdamMinimizesQuadratic(t *testing.T) {
	// minimize ‖x − target‖² from a distant start.
	target := tensor.FromSlice([]float64{3, -2, 0.5}, 3)
	x := ag.Leaf(tensor.FromSlice([]float64{-5, 5, 9}, 3))
	opt := NewAdam([]*ag.Node{x}, 0.2)
	for i := 0; i < 300; i++ {
		opt.ZeroGrad()
		loss := ag.Sum(ag.Square(ag.Sub(x, ag.Const(target))))
		ag.Backward(loss)
		opt.Step()
	}
	if !tensor.Equal(x.Value, target, 1e-2) {
		t.Errorf("Adam failed to converge: %v, want %v", x.Value, target)
	}
}

func TestAdamBiasCorrectionFirstStep(t *testing.T) {
	// With bias correction, the very first step moves by ≈ LR in the
	// gradient direction regardless of gradient magnitude.
	for _, g := range []float64{1e-4, 1.0, 1e4} {
		x := ag.Leaf(tensor.Scalar(0))
		opt := NewAdam([]*ag.Node{x}, 0.1)
		x.Grad.Data()[0] = g
		opt.Step()
		if got := math.Abs(x.Value.Data()[0]); math.Abs(got-0.1) > 1e-3 {
			t.Errorf("first step with grad %g moved %g, want ≈0.1", g, got)
		}
	}
}

func TestAdamZeroGrad(t *testing.T) {
	x := ag.Leaf(tensor.FromSlice([]float64{1, 1}, 2))
	opt := NewAdam([]*ag.Node{x}, 0.1)
	x.Grad.Data()[0] = 3
	x.Grad.Data()[1] = 4
	opt.ZeroGrad()
	if !tensor.Equal(x.Grad, tensor.New(2), 0) {
		t.Errorf("ZeroGrad left gradients %v", x.Grad)
	}
}

func TestCosineSchedule(t *testing.T) {
	cs := CosineSchedule{Initial: 1, Floor: 0, Period: 10}
	if cs.At(0) != 1 {
		t.Errorf("cosine start = %g, want 1", cs.At(0))
	}
	if math.Abs(cs.At(5)-0.5) > 1e-12 {
		t.Errorf("cosine midpoint = %g, want 0.5", cs.At(5))
	}
	if cs.At(10) != 0 || cs.At(20) != 0 {
		t.Error("cosine must clamp to floor after period")
	}
	// Monotone decrease within the period.
	for s := 1; s < 10; s++ {
		if cs.At(s) >= cs.At(s-1) {
			t.Fatalf("cosine not decreasing at step %d", s)
		}
	}
}

func TestTrainRejectsBadArgs(t *testing.T) {
	net := must(snn.BuildSHD(rand.New(rand.NewSource(1)), snn.ScaleTiny))
	cfg := Config{Epochs: 1, LR: 0.02, Seed: 1}
	if _, err := Train(net, nil, nil, cfg); err == nil {
		t.Error("empty dataset must error")
	}
	if _, err := Train(net, []*tensor.Tensor{tensor.New(1, 40)}, []int{0, 1}, cfg); err == nil {
		t.Error("mismatched lengths must error")
	}
}

func TestTrainingImprovesAccuracy(t *testing.T) {
	// End-to-end learning check: a tiny recurrent SNN must learn the
	// synthetic SHD classes far beyond chance (5% for 20 classes).
	rng := rand.New(rand.NewSource(2))
	net := must(snn.BuildSHD(rng, snn.ScaleTiny))
	ds := dataset.GenSHD(dataset.Config{TrainPerClass: 4, TestPerClass: 2, Steps: 25, Seed: 3}, net.InShape[0])
	trainIn, trainLab := ds.Inputs("train")
	testIn, testLab := ds.Inputs("test")

	before := Evaluate(net, testIn, testLab)
	hist, err := Train(net, trainIn, trainLab, Config{Epochs: 6, LR: 0.03, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	after := Evaluate(net, testIn, testLab)

	if len(hist.Loss) != 6 || len(hist.Accuracy) != 6 {
		t.Fatalf("history lengths %d/%d", len(hist.Loss), len(hist.Accuracy))
	}
	if hist.Loss[5] >= hist.Loss[0] {
		t.Errorf("training loss did not decrease: %v", hist.Loss)
	}
	if after < 0.4 {
		t.Errorf("test accuracy after training = %.2f (before %.2f); expected ≥ 0.40 on separable classes", after, before)
	}
}

func TestEvaluateEmpty(t *testing.T) {
	net := must(snn.BuildSHD(rand.New(rand.NewSource(5)), snn.ScaleTiny))
	if Evaluate(net, nil, nil) != 0 {
		t.Error("empty evaluation should be 0")
	}
}
