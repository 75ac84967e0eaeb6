package train

import (
	"fmt"
	"io"
	"math/rand"

	ag "github.com/repro/snntest/internal/autograd"
	"github.com/repro/snntest/internal/snn"
	"github.com/repro/snntest/internal/tensor"
)

// Config controls a training run.
type Config struct {
	Epochs int
	LR     float64
	// Seed shuffles the sample order deterministically.
	Seed int64
	// Log, when non-nil, receives one progress line per epoch.
	Log io.Writer
}

// History records per-epoch training statistics.
type History struct {
	Loss     []float64 // mean cross-entropy per epoch
	Accuracy []float64 // training top-1 accuracy per epoch
}

// inputStepNodes splits a [T, frame...] stimulus into per-step constant
// nodes for RunGraph.
func inputStepNodes(net *snn.Network, input *tensor.Tensor) []*ag.Node {
	steps := input.Dim(0)
	nodes := make([]*ag.Node, steps)
	for t := 0; t < steps; t++ {
		nodes[t] = ag.Const(input.Step(t).Reshape(net.InShape...))
	}
	return nodes
}

// Train fits the network's weights on the labelled stimuli using
// surrogate-gradient BPTT and a rate-coded softmax cross-entropy loss on
// output spike counts, the training scheme SLAYER-style frameworks use.
// Inputs and labels must be parallel slices.
func Train(net *snn.Network, inputs []*tensor.Tensor, labels []int, cfg Config) (History, error) {
	if len(inputs) == 0 || len(inputs) != len(labels) {
		return History{}, fmt.Errorf("train: need parallel non-empty inputs/labels, got %d/%d", len(inputs), len(labels))
	}
	leaves := net.ParamLeaves()
	if len(leaves) == 0 {
		return History{}, fmt.Errorf("train: network %q has no trainable parameters", net.Name)
	}
	opt := NewAdam(leaves, cfg.LR)
	rng := rand.New(rand.NewSource(cfg.Seed))
	var hist History

	order := make([]int, len(inputs))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		totalLoss, correct := 0.0, 0
		for _, idx := range order {
			res := net.RunGraph(inputStepNodes(net, inputs[idx]))
			counts := res.LayerCounts(res.OutputLayer())
			loss := ag.SoftmaxCrossEntropy(counts, labels[idx])
			totalLoss += loss.Value.Data()[0]
			if tensor.ArgMax(counts.Value) == labels[idx] {
				correct++
			}
			opt.ZeroGrad()
			if err := ag.Backward(loss); err != nil {
				return hist, err
			}
			opt.Step()
		}
		hist.Loss = append(hist.Loss, totalLoss/float64(len(inputs)))
		hist.Accuracy = append(hist.Accuracy, float64(correct)/float64(len(inputs)))
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "epoch %d/%d: loss %.4f, accuracy %.2f%%\n",
				epoch+1, cfg.Epochs, hist.Loss[epoch], 100*hist.Accuracy[epoch])
		}
	}
	return hist, nil
}

// Evaluate returns top-1 accuracy of the network on the labelled stimuli
// using the fast inference path.
func Evaluate(net *snn.Network, inputs []*tensor.Tensor, labels []int) float64 {
	if len(inputs) == 0 {
		return 0
	}
	correct := 0
	for i, in := range inputs {
		if net.Predict(in) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(inputs))
}
