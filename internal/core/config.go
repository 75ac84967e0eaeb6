package core

import (
	"io"
	"time"

	"github.com/repro/snntest/internal/train"
)

// Parallel configures the deterministic multi-restart generation engine,
// the only generation driver. Every outer iteration draws one iterSeed
// from the master RNG stream and launches K = Restarts independent chunk
// optimizers whose RNGs are derived as iterSeed + restartIndex. It runs
// them on a bounded worker pool and picks the winner by a fixed
// tie-break: lowest stage-1 loss, then most newly activated target
// neurons, then lowest restart index. T_in,min calibration likewise
// evaluates its candidate durations on the pool with per-candidate
// derived RNGs. Because every random stream and every selection rule is
// a pure function of the seed, results are bit-identical for ANY worker
// count; Workers only trades cores for wall-clock time.
type Parallel struct {
	// Restarts is K, the number of independently seeded chunk optimizers
	// per outer iteration; 0 behaves as 1.
	Restarts int
	// Workers bounds the goroutines evaluating restarts and calibration
	// candidates; 0 uses GOMAXPROCS. Never affects results, only speed.
	Workers int
}

// restarts returns the effective restart count K (at least 1).
func (p Parallel) restarts() int {
	if p.Restarts < 1 {
		return 1
	}
	return p.Restarts
}

// Config holds the user-defined parameters of the test-generation
// algorithm (Section V-C). The zero value is not usable; start from
// DefaultConfig or TestConfig.
type Config struct {
	// TInMin is the initial chunk duration in steps. When 0,
	// GenerateContext calibrates it as the minimum duration whose
	// optimized input makes every output neuron fire (the paper's min-L1
	// calibration starting at 1 ms).
	TInMin int
	// TInFloor lower-bounds the calibrated T_in,min. In this simulator a
	// spike cascades through every layer within one step, so very small
	// networks can calibrate to a single step, leaving no room for
	// membrane accumulation; the floor keeps chunks long enough to build
	// temporal structure. 0 behaves as 1 (the paper's starting point).
	TInFloor int
	// TDMinDivisor sets TD_min = T_in,min / TDMinDivisor (paper: 10).
	TDMinDivisor int
	// Steps1 is the number of optimization steps per stage-1 pass
	// (paper: 2000). Stage 2 runs Steps1/2 steps.
	Steps1 int
	// Beta is the initial duration increment, in steps, applied when a
	// stage-1 pass activates no new target neuron (paper: 10 ms); it
	// doubles after every growth.
	Beta int
	// MaxGrowth bounds the number of duration growths per iteration.
	MaxGrowth int
	// MaxIterations bounds the number of generated chunks.
	MaxIterations int
	// MinNewFraction stops the outer loop when an iteration activates
	// fewer new neurons than this fraction of the network (0 keeps the
	// paper's stop-only-on-no-progress behaviour). It bounds the test
	// length on models whose activation tail saturates slowly.
	MinNewFraction float64
	// TimeLimit is the paper's t_limit termination condition (3 h there).
	// GenerateContext enforces it through a context deadline: the zero
	// value expires immediately (matching the historical ad-hoc polling),
	// so callers wanting an effectively unbounded run set a large value.
	TimeLimit time.Duration
	// Parallel configures the restart count and worker pool of the
	// generation engine; the zero value runs one restart per iteration on
	// GOMAXPROCS calibration workers.
	Parallel Parallel
	// LR is the initial Adam learning rate (paper: 0.1), annealed over
	// each stage with a cosine schedule.
	LR float64
	// TauMax is the maximum Gumbel-Softmax temperature (paper: 0.9),
	// annealed downward over each stage.
	TauMax float64
	// MismatchWeight scales the constant-O^L penalty of stage 2.
	MismatchWeight float64
	// DisableStage2, DisableL3 and DisableL4 switch off parts of the
	// algorithm for the ablation studies.
	DisableStage2 bool
	DisableL3     bool
	DisableL4     bool
	// PlainSigmoid replaces the Gumbel-Softmax relaxation with a plain
	// noise-free sigmoid (ablation of the stochastic reparameterization).
	PlainSigmoid bool
	// Seed drives every stochastic component.
	Seed int64
	// Log, when non-nil, receives per-iteration progress lines.
	Log io.Writer
}

// DefaultConfig mirrors the paper's settings; suitable for paper-scale
// runs (hours).
func DefaultConfig() Config {
	return Config{
		TDMinDivisor:   10,
		Steps1:         2000,
		Beta:           10,
		MaxGrowth:      4,
		MaxIterations:  64,
		TimeLimit:      3 * time.Hour,
		LR:             0.1,
		TauMax:         0.9,
		MismatchWeight: 25,
		Seed:           1,
	}
}

// TestConfig shrinks the optimization budget so the full algorithm runs
// in seconds on the tiny benchmark models; the structure (two stages,
// duration growth, chunk concatenation) is unchanged.
func TestConfig() Config {
	c := DefaultConfig()
	c.Steps1 = 60
	c.Beta = 5
	c.TInFloor = 8
	c.MaxGrowth = 2
	c.MaxIterations = 12
	c.MinNewFraction = 0.02
	c.TimeLimit = 2 * time.Minute
	return c
}

// steps2 returns the stage-2 step budget (paper: N¹steps/2).
func (c *Config) steps2() int { return c.Steps1 / 2 }

// lrSchedule returns the per-stage learning-rate annealing.
func (c *Config) lrSchedule(steps int) train.CosineSchedule {
	return train.CosineSchedule{Initial: c.LR, Floor: c.LR / 20, Period: steps}
}

// tauSchedule returns the per-stage temperature annealing.
func (c *Config) tauSchedule(steps int) train.CosineSchedule {
	return train.CosineSchedule{Initial: c.TauMax, Floor: 0.1, Period: steps}
}
