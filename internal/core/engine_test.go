package core

import (
	"math/rand"
	"testing"

	"github.com/repro/snntest/internal/snn"
	"github.com/repro/snntest/internal/tensor"
)

// TestEquivReferenceEngineBitIdentity pins the buffer-reusing generation
// engine (arena, record/scratch reuse, mapless activation counting) to
// the per-iteration-allocation reference engine: for every fixture and
// for one restart and for several, the generated
// stimulus and the iteration trace must be bit-identical — the engines
// may differ only in where buffers live.
func TestEquivReferenceEngineBitIdentity(t *testing.T) {
	for _, benchmark := range []string{"nmnist", "ibm-gesture", "shd"} {
		t.Run(benchmark, func(t *testing.T) {
			for _, par := range []Parallel{{}, {Restarts: 3, Workers: 4}} {
				net := must(snn.Build(benchmark, rand.New(rand.NewSource(33)), snn.ScaleTiny))
				cfg := fastParallelConfig(par.Restarts, par.Workers)
				cfg.Parallel = par

				fast := must(Generate(net, cfg))
				cfg.ReferenceEngine = true
				ref := must(Generate(net, cfg))

				if !tensor.Equal(fast.Stimulus, ref.Stimulus, 0) {
					t.Fatalf("restarts=%d: fast-engine stimulus differs from reference engine", par.Restarts)
				}
				if len(fast.Trace) != len(ref.Trace) {
					t.Fatalf("restarts=%d: trace length %d vs %d", par.Restarts, len(fast.Trace), len(ref.Trace))
				}
				for i := range fast.Trace {
					if fast.Trace[i] != ref.Trace[i] {
						t.Errorf("restarts=%d: trace[%d] differs: %+v vs %+v", par.Restarts, i, fast.Trace[i], ref.Trace[i])
					}
				}
			}
		})
	}
}
