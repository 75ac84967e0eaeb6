// Package experiments orchestrates the end-to-end reproduction pipelines
// behind every table and figure of the paper: build a benchmark SNN,
// train it on the synthetic stand-in dataset, enumerate and classify the
// fault universe, generate the optimized test stimulus, and compute the
// reported metrics. The cmd/benchreport binary, the runnable examples and
// the root benchmark harness are all thin layers over this package.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"github.com/repro/snntest/internal/core"
	"github.com/repro/snntest/internal/dataset"
	"github.com/repro/snntest/internal/fault"
	"github.com/repro/snntest/internal/snn"
	"github.com/repro/snntest/internal/tensor"
	"github.com/repro/snntest/internal/train"
)

// Benchmarks lists the paper's three case studies in presentation order.
var Benchmarks = []string{"nmnist", "ibm-gesture", "shd"}

// Options sizes a pipeline run. The defaults in ScaledOptions keep the
// three benchmarks runnable on a single CPU core; the paper's full scale
// is reachable by raising Scale and the budgets.
type Options struct {
	Scale         snn.ModelScale
	Seed          int64
	TrainPerClass int
	TestPerClass  int
	SampleSteps   int // duration of one dataset sample; 0 = benchmark default
	TrainEpochs   int
	// TrainLR is the Adam learning rate; 0 auto-scales with the sample
	// duration (longer BPTT windows need smaller steps).
	TrainLR float64
	// FaultStride subsamples the fault universe (1 = exhaustive); large
	// models use a stride so campaigns finish in reasonable time, exactly
	// like statistical fault sampling in industrial flows.
	FaultStride int
	// Workers for fault campaigns (≤ 0: GOMAXPROCS).
	Workers int
	// GenConfig drives the test-generation algorithm.
	GenConfig core.Config
	// Log receives progress lines when non-nil.
	Log io.Writer
}

// ScaledOptions returns options tuned per scale: tiny for unit tests and
// CI, small for the reported tables, full for paper-scale geometry.
func ScaledOptions(scale snn.ModelScale, seed int64) Options {
	o := Options{
		Scale:         scale,
		Seed:          seed,
		TrainPerClass: 4,
		TestPerClass:  2,
		TrainEpochs:   5,
		FaultStride:   1,
		GenConfig:     core.TestConfig(),
	}
	switch scale {
	case snn.ScaleSmall:
		o.TrainPerClass = 6
		o.TestPerClass = 3
		o.GenConfig = core.TestConfig()
		o.GenConfig.Steps1 = 120
		o.GenConfig.MaxIterations = 8
		o.FaultStride = 7
	case snn.ScaleFull:
		o.TrainPerClass = 16
		o.TestPerClass = 8
		o.TrainEpochs = 8
		o.GenConfig = core.DefaultConfig()
		o.FaultStride = 101
	}
	o.GenConfig.Seed = seed
	return o
}

// Pipeline holds one benchmark's trained model, dataset and (lazily
// computed) experiment artifacts.
type Pipeline struct {
	Benchmark string
	Opts      Options
	Net       *snn.Network
	Data      *dataset.Dataset
	History   train.History
	TrainTime time.Duration
	// Accuracy is the post-training test-split top-1 accuracy.
	Accuracy float64

	faults   []fault.Fault
	critical []bool
	// ClassifyTime is the wall-clock time of the criticality campaign.
	ClassifyTime time.Duration
	gen          *core.Result
}

// NewPipeline builds, trains and evaluates one benchmark model.
func NewPipeline(benchmark string, opts Options) (*Pipeline, error) {
	rng := rand.New(rand.NewSource(opts.Seed))
	net, err := snn.Build(benchmark, rng, opts.Scale)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	steps := opts.SampleSteps
	if steps == 0 {
		steps, err = snn.SampleSteps(benchmark, opts.Scale)
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
	}
	ds, err := dataset.ForBenchmark(net, dataset.Config{
		TrainPerClass: opts.TrainPerClass,
		TestPerClass:  opts.TestPerClass,
		Steps:         steps,
		Seed:          opts.Seed + 1,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	trainIn, trainLab := ds.Inputs("train")
	lr := opts.TrainLR
	if lr == 0 { //lint:ignore floateq 0 is the documented unset sentinel for TrainLR
		// Longer BPTT windows accumulate larger gradients; scale the step
		// size down with the sample duration.
		lr = 0.6 / float64(steps)
		if lr > 0.03 {
			lr = 0.03
		} else if lr < 0.005 {
			lr = 0.005
		}
	}
	start := time.Now()
	hist, err := train.Train(net, trainIn, trainLab, train.Config{
		Epochs: opts.TrainEpochs, LR: lr, Seed: opts.Seed + 2, Log: opts.Log,
	})
	if err != nil {
		return nil, err
	}
	testIn, testLab := ds.Inputs("test")
	return &Pipeline{
		Benchmark: benchmark,
		Opts:      opts,
		Net:       net,
		Data:      ds,
		History:   hist,
		TrainTime: time.Since(start),
		Accuracy:  train.Evaluate(net, testIn, testLab),
	}, nil
}

// Faults returns the (possibly strided) fault universe, computing it on
// first use.
func (p *Pipeline) Faults() []fault.Fault {
	if p.faults == nil {
		p.faults = fault.SampleUniverse(p.Net, fault.DefaultOptions(), p.Opts.FaultStride)
	}
	return p.faults
}

// Critical returns the per-fault criticality labels from the full
// classification campaign over the test split (the Table II labelling).
func (p *Pipeline) Critical() ([]bool, error) {
	if p.critical == nil {
		testIn, _ := p.Data.Inputs("test")
		start := time.Now()
		critical, err := fault.Classify(p.Net, p.Faults(), testIn, p.Opts.Workers, p.progress("classify"))
		if err != nil {
			return nil, err
		}
		p.critical = critical
		p.ClassifyTime = time.Since(start)
	}
	return p.critical, nil
}

// Generate runs the paper's test-generation algorithm, caching the result.
// When the multi-restart engine is enabled and its worker bound is unset,
// the pipeline's campaign worker count applies to generation too (results
// are worker-count-invariant, so this only affects wall-clock time).
func (p *Pipeline) Generate() (*core.Result, error) {
	if p.gen == nil {
		cfg := p.Opts.GenConfig
		cfg.Log = p.Opts.Log
		if cfg.Parallel.Workers == 0 {
			cfg.Parallel.Workers = p.Opts.Workers
		}
		gen, err := core.Generate(p.Net, cfg)
		if err != nil {
			return nil, err
		}
		p.gen = gen
	}
	return p.gen, nil
}

// SampleStepsUsed returns the dataset sample duration in steps.
func (p *Pipeline) SampleStepsUsed() int { return p.Data.SampleSteps }

// RandomSample returns a deterministic dataset sample for figure
// rendering.
func (p *Pipeline) RandomSample(seed int64) *tensor.Tensor {
	idx := int(seed) % len(p.Data.Test)
	return p.Data.Test[idx].Input
}

// progress wraps the log writer into a campaign progress callback.
func (p *Pipeline) progress(phase string) func(int) {
	if p.Opts.Log == nil {
		return nil
	}
	total := len(p.Faults())
	return func(done int) {
		if done == total {
			fmt.Fprintf(p.Opts.Log, "%s/%s: %d/%d faults\n", p.Benchmark, phase, done, total)
		}
	}
}
