package ledger

import (
	"math"
	"sort"
	"strconv"

	"github.com/repro/snntest/internal/obs"
)

// latencyBuckets is the fixed bucket count of the detection-latency
// histograms; coarse on purpose so curve JSON stays small for any
// stimulus duration.
const latencyBuckets = 8

// Point is one sample of the coverage-over-time curve: after `Step`
// stimulus timesteps, `Detected` faults had already diverged from the
// golden response, i.e. a test of length Step+1 achieves `Coverage`.
type Point struct {
	Step     int     `json:"step"`
	Detected int     `json:"detected"`
	Coverage float64 `json:"coverage"`
}

// LatencyBucket is one bar of a detection-latency histogram: the count
// of faults whose first divergence fell in [Lo, Hi).
type LatencyBucket struct {
	Lo    int `json:"lo"`
	Hi    int `json:"hi"`
	Count int `json:"count"`
}

// LatencyStats summarises the first-divergence timesteps of one fault
// group (a layer or a fault kind).
type LatencyStats struct {
	// Count is the number of detections with a known divergence step.
	Count    int             `json:"count"`
	MinStep  int             `json:"min_step"`
	MaxStep  int             `json:"max_step"`
	MeanStep float64         `json:"mean_step"`
	Buckets  []LatencyBucket `json:"buckets,omitempty"`
}

// Curve is the derived flight-recorder artifact for one run: the
// paper's coverage-vs-test-time curve plus detection-latency breakdowns
// per layer and per fault kind. The curve is monotone nondecreasing by
// construction (cumulative detection counts over increasing timesteps)
// and its last point reconciles exactly with the campaign's final
// detected/total coverage.
type Curve struct {
	Run   string `json:"run"`
	Phase string `json:"phase"`
	// Total is the campaign's fault count; Done the completed count.
	Total int `json:"total"`
	Done  int `json:"done"`
	// Detected is the final detected (or critical) fault count.
	Detected int `json:"detected"`
	// Steps is the stimulus duration in timesteps, when recorded.
	Steps int `json:"steps,omitempty"`
	// Points is the coverage curve, strictly increasing in Step.
	Points []Point `json:"points"`
	// FinalCoverage is Detected/Total (0 when Total is 0).
	FinalCoverage float64 `json:"final_coverage"`
	// LatencyByLayer / LatencyByKind are detection-latency histograms
	// keyed by fault layer (decimal string) and fault kind.
	LatencyByLayer map[string]*LatencyStats `json:"latency_by_layer,omitempty"`
	LatencyByKind  map[string]*LatencyStats `json:"latency_by_kind,omitempty"`
	// LayerStepsByLayer sums simulated (layer, timestep) units per fault
	// site; LayerSteps is their total — the campaign's work counter.
	LayerStepsByLayer map[string]int64 `json:"layer_steps_by_layer,omitempty"`
	LayerSteps        int64            `json:"layer_steps,omitempty"`
	// Terminal marks a run whose run_end entry was recorded.
	Terminal bool `json:"terminal"`
}

// latencyGroup accumulates one group's divergence-step distribution.
// Memory is bounded by the stimulus duration (distinct steps), not the
// fault count.
type latencyGroup struct {
	count     int
	min, max  int
	sum       float64 // float so corrupt journal steps cannot wrap it
	stepCount map[int]int
}

func (g *latencyGroup) add(step int) {
	if g.stepCount == nil {
		g.stepCount = make(map[int]int)
	}
	if g.count == 0 || step < g.min {
		g.min = step
	}
	if g.count == 0 || step > g.max {
		g.max = step
	}
	g.count++
	g.sum += float64(step)
	g.stepCount[step]++
}

// stats freezes the group into its served form, bucketing over [0, hi)
// where hi is the stimulus duration when known, else max+1. Every bound
// is computed without overflow (hi saturates at math.MaxInt), so a
// journal line carrying an absurd divergence step cannot panic the fold.
func (g *latencyGroup) stats(steps int) *LatencyStats {
	s := &LatencyStats{Count: g.count, MinStep: g.min, MaxStep: g.max}
	if g.count == 0 {
		return s
	}
	s.MeanStep = g.sum / float64(g.count)
	hi := steps
	if hi <= g.max {
		hi = math.MaxInt
		if g.max < math.MaxInt {
			hi = g.max + 1
		}
	}
	n := min(latencyBuckets, hi)
	width := hi/n + min(hi%n, 1) // ceil(hi/n)
	buckets := make([]LatencyBucket, n)
	for i := range buckets {
		buckets[i].Lo = i * width
		buckets[i].Hi = hi
		if i < n-1 && (i+1)*width < hi {
			buckets[i].Hi = (i + 1) * width
		}
	}
	for step, c := range g.stepCount {
		i := step / width
		if i >= n {
			i = n - 1
		}
		buckets[i].Count += c
	}
	s.Buckets = buckets
	return s
}

// CurveBuilder folds a run's event stream into its coverage curve. The
// builder is incremental — the telemetry sink feeds it live fault
// events under its own lock — and its memory is bounded by the stimulus
// duration and group counts, never by the fault count. Not safe for
// concurrent use; callers serialize.
type CurveBuilder struct {
	run   string
	phase string
	total int
	steps int
	done  int

	detected   int
	unknown    int         // detections with no divergence step recorded
	detAtStep  map[int]int // detections per first-divergence step
	byLayer    map[string]*latencyGroup
	byKind     map[string]*latencyGroup
	layerSteps map[string]int64
	stepsTotal int64
	terminal   bool
}

// NewCurveBuilder starts a curve for one run.
func NewCurveBuilder(run, phase string) *CurveBuilder {
	return &CurveBuilder{
		run:        run,
		phase:      phase,
		detAtStep:  make(map[int]int),
		byLayer:    make(map[string]*latencyGroup),
		byKind:     make(map[string]*latencyGroup),
		layerSteps: make(map[string]int64),
	}
}

// Start records the run_start metadata: planned fault total and the
// stimulus duration in timesteps.
func (b *CurveBuilder) Start(total, steps int) {
	b.total = total
	b.steps = steps
}

// AddFault folds one fault outcome into the curve.
func (b *CurveBuilder) AddFault(f obs.FaultOutcome) {
	b.done++
	layer := strconv.Itoa(f.Layer)
	b.layerSteps[layer] += int64(f.LayerSteps)
	b.stepsTotal += int64(f.LayerSteps)
	if !f.Detected {
		return
	}
	b.detected++
	if f.DivStep < 0 {
		// Classification campaigns detect without a divergence step;
		// these land on the curve's final point so the endpoint still
		// reconciles with detected/total.
		b.unknown++
		return
	}
	b.detAtStep[f.DivStep]++
	g := b.byLayer[layer]
	if g == nil {
		g = &latencyGroup{}
		b.byLayer[layer] = g
	}
	g.add(f.DivStep)
	k := b.byKind[f.Kind]
	if k == nil {
		k = &latencyGroup{}
		b.byKind[f.Kind] = k
	}
	k.add(f.DivStep)
}

// End records the run_end tallies and marks the curve terminal.
func (b *CurveBuilder) End(done, total int) {
	if total > 0 {
		b.total = total
	}
	if done > b.done {
		b.done = done
	}
	b.terminal = true
}

// Done reports the completed-fault count folded so far.
func (b *CurveBuilder) Done() int { return b.done }

// Detected reports the detected-fault count folded so far.
func (b *CurveBuilder) Detected() int { return b.detected }

// Curve freezes the builder into its served form. Safe to call
// repeatedly (mid-run snapshots for the live endpoint).
func (b *CurveBuilder) Curve() Curve {
	c := Curve{
		Run:        b.run,
		Phase:      b.phase,
		Total:      b.total,
		Done:       b.done,
		Detected:   b.detected,
		Steps:      b.steps,
		LayerSteps: b.stepsTotal,
		Terminal:   b.terminal,
	}
	if b.total > 0 {
		c.FinalCoverage = float64(b.detected) / float64(b.total)
	}
	steps := make([]int, 0, len(b.detAtStep))
	for s := range b.detAtStep {
		steps = append(steps, s)
	}
	sort.Ints(steps)
	final := 0
	if b.steps > 0 {
		final = b.steps - 1
	}
	if n := len(steps); n > 0 && steps[n-1] > final {
		final = steps[n-1]
	}
	if b.unknown > 0 && (len(steps) == 0 || steps[len(steps)-1] < final) {
		steps = append(steps, final)
	}
	cum := 0
	c.Points = make([]Point, 0, len(steps))
	for _, s := range steps {
		cum += b.detAtStep[s]
		det := cum
		if s == final {
			det += b.unknown
		}
		p := Point{Step: s, Detected: det}
		if b.total > 0 {
			p.Coverage = float64(det) / float64(b.total)
		}
		c.Points = append(c.Points, p)
	}
	if len(b.byLayer) > 0 {
		c.LatencyByLayer = make(map[string]*LatencyStats, len(b.byLayer))
		for k, g := range b.byLayer {
			c.LatencyByLayer[k] = g.stats(b.steps)
		}
	}
	if len(b.byKind) > 0 {
		c.LatencyByKind = make(map[string]*LatencyStats, len(b.byKind))
		for k, g := range b.byKind {
			c.LatencyByKind[k] = g.stats(b.steps)
		}
	}
	if len(b.layerSteps) > 0 {
		c.LayerStepsByLayer = make(map[string]int64, len(b.layerSteps))
		for k, v := range b.layerSteps {
			c.LayerStepsByLayer[k] = v
		}
	}
	return c
}

// Apply folds one journal entry into the builder — the rehydration path
// shares the exact fold the live sink uses.
func (b *CurveBuilder) Apply(e Entry) {
	switch e.Kind {
	case string(obs.KindRunStart):
		if b.phase == "" {
			b.phase = e.Name
		}
		b.Start(e.Total, attrInt(e.Attrs, "steps"))
	case string(obs.KindFault):
		if e.Fault != nil {
			b.AddFault(*e.Fault)
		}
	case string(obs.KindRunEnd):
		b.End(e.Done, e.Total)
	}
}
