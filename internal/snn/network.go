package snn

import (
	"fmt"
	"time"

	ag "github.com/repro/snntest/internal/autograd"
	"github.com/repro/snntest/internal/obs"
	"github.com/repro/snntest/internal/tensor"
)

// Hot-path counters of the fast simulation loop. Every update is guarded
// by a single obs.On() branch so the disabled (default) layer leaves the
// simulator's cost model untouched; see DESIGN.md §6 for the taxonomy.
// The pass-latency histogram is flushed once per forward pass alongside
// the counters, so the inner simulation loop never reads the clock.
var (
	obsForwardPasses = obs.NewCounter("snn_forward_passes_total")
	obsLayerSteps    = obs.NewCounter("snn_layer_steps_total")
	obsSpikes        = obs.NewCounter("snn_spikes_total")
	obsForwardHist   = obs.NewTimingHistogram("snn_forward_pass_seconds")
)

// Network is a feedforward stack of spiking layers (recurrent projections
// loop within a layer). The input is a spatio-temporal binary tensor of
// shape [T, InShape...]; each step's frame propagates through every layer
// before the next step begins, matching the synchronous time-stepped
// semantics of SLAYER-style simulators.
type Network struct {
	Name   string
	Layers []*Layer
	// InShape is the spatial shape of one input frame, e.g. [2,34,34] for
	// a DVS sensor or [700] for audio channels.
	InShape []int
	// StepMS is the real time represented by one simulation step, in
	// milliseconds; it converts step counts into the paper's test-duration
	// seconds.
	StepMS float64
}

// NewNetwork validates layer shape compatibility and returns the network.
func NewNetwork(name string, inShape []int, stepMS float64, layers ...*Layer) (*Network, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("snn: network %q needs at least one layer", name)
	}
	prev := inShape
	for _, l := range layers {
		in := l.Proj.InShape()
		if flatLen(in) != flatLen(prev) {
			return nil, fmt.Errorf("snn: network %q: layer %q expects input %v but receives %v", name, l.Name, in, prev)
		}
		prev = l.Proj.OutShape()
	}
	return &Network{Name: name, Layers: layers, InShape: append([]int(nil), inShape...), StepMS: stepMS}, nil
}

func flatLen(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// InputLen returns the flattened size of one input frame.
func (n *Network) InputLen() int { return flatLen(n.InShape) }

// OutputLen returns the number of output-layer neurons (classes).
func (n *Network) OutputLen() int { return n.Layers[len(n.Layers)-1].NumNeurons() }

// NumNeurons returns the total neuron count across layers.
func (n *Network) NumNeurons() int {
	total := 0
	for _, l := range n.Layers {
		total += l.NumNeurons()
	}
	return total
}

// NumSynapses returns the total faultable synapse count across layers.
func (n *Network) NumSynapses() int {
	total := 0
	for _, l := range n.Layers {
		total += l.NumSynapses()
	}
	return total
}

// LayerOffsets returns, per layer, the global index of its first neuron;
// fault enumeration and the activated-neuron bookkeeping use these global
// neuron ids.
func (n *Network) LayerOffsets() []int {
	offs := make([]int, len(n.Layers))
	off := 0
	for i, l := range n.Layers {
		offs[i] = off
		off += l.NumNeurons()
	}
	return offs
}

// Clone deep-copies the network (weights and fault overrides included).
func (n *Network) Clone() *Network {
	layers := make([]*Layer, len(n.Layers))
	for i, l := range n.Layers {
		layers[i] = l.Clone()
	}
	return &Network{
		Name:    n.Name,
		Layers:  layers,
		InShape: append([]int(nil), n.InShape...),
		StepMS:  n.StepMS,
	}
}

// HasFaultOverrides reports whether any layer carries per-neuron fault
// overrides.
func (n *Network) HasFaultOverrides() bool {
	for _, l := range n.Layers {
		if l.HasFaultOverrides() {
			return true
		}
	}
	return false
}

// ParamLeaves switches every weighted projection into training mode and
// returns all weight leaf nodes, ready for an optimizer.
func (n *Network) ParamLeaves() []*ag.Node {
	var leaves []*ag.Node
	for _, l := range n.Layers {
		leaves = append(leaves, l.Proj.ParamLeaves()...)
	}
	return leaves
}

// ZeroInput returns an all-zero stimulus of t steps, the "sleep" input the
// paper inserts between optimized chunks (Eq. 7).
func (n *Network) ZeroInput(t int) *tensor.Tensor {
	return tensor.New(append([]int{t}, n.InShape...)...)
}

// CheckInput verifies that input has shape [T, InShape...] with T ≥ 1
// and returns T. Binary entries are not verified (callers own that
// invariant).
func (n *Network) CheckInput(input *tensor.Tensor) (int, error) {
	shape := input.Shape()
	if len(shape) != len(n.InShape)+1 || shape[0] < 1 {
		return 0, fmt.Errorf("snn: input shape %v does not match [T, %v]", shape, n.InShape)
	}
	for i, d := range n.InShape {
		if shape[i+1] != d {
			return 0, fmt.Errorf("snn: input shape %v does not match [T, %v]", shape, n.InShape)
		}
	}
	return shape[0], nil
}

// fastLayerState is the mutable per-layer simulation state of the fast path.
type fastLayerState struct {
	u         []float64 // membrane potentials
	lastSpike []float64 // previous step's output spikes
	refrac    []int     // remaining refractory steps
	outShape  []int
	// lastSpikeT persistently wraps lastSpike for recurrent projections,
	// so the hot loop does not re-wrap the slice every step.
	lastSpikeT *tensor.Tensor
	recurrent  bool
}

// reset clears the state to the fresh-network condition.
//
//snn:hotpath
func (st *fastLayerState) reset() {
	for i := range st.u {
		st.u[i] = 0
		st.lastSpike[i] = 0
		st.refrac[i] = 0
	}
}

// Scratch holds reusable simulation state — per-layer membrane/refractory
// buffers, fused kernels with their active-index lists and tap tables,
// and spike-record storage — so repeated Run/RunFrom calls (a fault-simulation campaign
// simulates one run per fault) allocate nothing per run. A Scratch belongs
// to one goroutine; the record returned by its RunFrom is overwritten by
// the next call.
type Scratch struct {
	net    *Network
	states []*fastLayerState
	// own[li] is the scratch-owned spike buffer of layer li, lazily sized
	// to the current step count. Record layers below the replay start
	// alias the golden record instead, so the two sets are kept separate.
	own     []*tensor.Tensor
	kernels []*layerKernel
	// rec is the reusable result record; every runFrom call rewrites its
	// Steps and Layers in place.
	rec *Record
	// frame is the flattened length of one stimulus frame.
	frame int
	// reference selects the allocating reference path (Projection.Forward
	// + stepLayer) over the fused kernels; see SetReference.
	reference bool
	// lastSimSteps records how many stimulus timesteps the most recent
	// runFrom simulated (the early-exit point of DivergesFrom); see
	// LastSimSteps.
	lastSimSteps int
}

// NewScratch allocates reusable simulation state for this network. The
// scratch is tied to the network's geometry; use Bind to re-point it at a
// geometry-identical clone (fault injectors simulate on clones).
func (n *Network) NewScratch() *Scratch {
	states := make([]*fastLayerState, len(n.Layers))
	kernels := make([]*layerKernel, len(n.Layers))
	for i, l := range n.Layers {
		nn := l.NumNeurons()
		st := &fastLayerState{
			u:         make([]float64, nn),
			lastSpike: make([]float64, nn),
			refrac:    make([]int, nn),
			outShape:  l.Proj.OutShape(),
		}
		if _, ok := l.Proj.(*RecurrentProj); ok {
			st.recurrent = true
			st.lastSpikeT = tensor.FromSlice(st.lastSpike, nn)
		}
		states[i] = st
		kernels[i] = newLayerKernel(l)
	}
	return &Scratch{
		net:     n,
		states:  states,
		own:     make([]*tensor.Tensor, len(n.Layers)),
		kernels: kernels,
		rec:     &Record{Layers: make([]*tensor.Tensor, len(n.Layers))},
		frame:   n.InputLen(),
	}
}

// SetReference switches the scratch onto the reference simulation path:
// per-step Projection.Forward tensor materialization followed by the
// plain stepLayer kernel. The fused path (the default) is bit-identical
// to it; the reference path is kept as the differential baseline for the
// equivalence/fuzz harness and the BenchmarkForwardFused speedup gate.
func (s *Scratch) SetReference(on bool) { s.reference = on }

// Bind re-points the scratch at net, which must be geometry-identical to
// the network the scratch was built for (layer kinds, shapes, synapse
// counts, conv/pool window parameters). Fault injectors bind one scratch
// to each faulty clone instead of re-allocating; binding an incompatible
// network is an error rather than a silent read of stale-shaped buffers.
func (s *Scratch) Bind(net *Network) error {
	if err := compatibleGeometry(s.net, net); err != nil {
		return err
	}
	s.net = net
	return nil
}

// compatibleGeometry reports whether a scratch built for network a can
// simulate network b without resizing any buffer.
func compatibleGeometry(a, b *Network) error {
	if len(a.Layers) != len(b.Layers) {
		return fmt.Errorf("snn: scratch bind: %d layers vs %d", len(a.Layers), len(b.Layers))
	}
	if !intsEq(a.InShape, b.InShape) {
		return fmt.Errorf("snn: scratch bind: input shape %v vs %v", a.InShape, b.InShape)
	}
	for i := range a.Layers {
		pa, pb := a.Layers[i].Proj, b.Layers[i].Proj
		if pa.Kind() != pb.Kind() ||
			!intsEq(pa.InShape(), pb.InShape()) ||
			!intsEq(pa.OutShape(), pb.OutShape()) ||
			pa.NumSynapses() != pb.NumSynapses() {
			return fmt.Errorf("snn: scratch bind: layer %d %s %v→%v incompatible with %s %v→%v",
				i, pa.Kind(), pa.InShape(), pa.OutShape(), pb.Kind(), pb.InShape(), pb.OutShape())
		}
		switch ca := pa.(type) {
		case *ConvProj:
			cb := pb.(*ConvProj)
			if !intsEq(ca.K.Shape(), cb.K.Shape()) || ca.Spec != cb.Spec {
				return fmt.Errorf("snn: scratch bind: layer %d conv kernel %v %+v vs %v %+v",
					i, ca.K.Shape(), ca.Spec, cb.K.Shape(), cb.Spec)
			}
		case *PoolProj:
			kb := pb.(*PoolProj)
			if ca.KSize != kb.KSize {
				return fmt.Errorf("snn: scratch bind: layer %d pool window %d vs %d", i, ca.KSize, kb.KSize)
			}
		}
	}
	return nil
}

func intsEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runFrom is the single simulation loop behind Run, RunFrom and
// DivergesFrom. It simulates layers [start, L) over the stimulus: layer
// start receives the raw stimulus when start == 0, and the golden record's
// layer start-1 spike trains otherwise (a fault at layer start cannot
// perturb layers below it, so their golden outputs are exact). When
// stopOnDiverge is set, the loop compares the output row against golden
// after each step and returns at the first divergence. It returns the
// record (layers < start alias golden, read-only), the number of simulated
// layer-steps, and the divergence flag.
func (s *Scratch) runFrom(start int, golden *Record, stimulus *tensor.Tensor, stopOnDiverge bool) (*Record, int, bool) {
	n := s.net
	steps, err := n.CheckInput(stimulus)
	if err != nil {
		// Hot-path boundary: a bad stimulus shape here is a programmer
		// error — campaign entry points validate before their loops.
		failf("%v", err)
	}
	last := len(n.Layers) - 1
	if start < 0 || start > last {
		failf("snn: RunFrom start layer %d out of range [0, %d]", start, last)
	}
	if start > 0 || stopOnDiverge {
		if golden == nil {
			failf("snn: RunFrom start layer %d requires a golden record", start)
		}
		if !golden.Matches(n, steps) {
			failf("snn: golden record (%d steps, %d layers) does not match stimulus %d steps, network %d layers",
				golden.Steps, len(golden.Layers), steps, len(n.Layers))
		}
	}
	if golden != nil {
		for li := start; li < len(n.Layers); li++ {
			if s.own[li] != nil && golden.Layers[li] == s.own[li] {
				failf("snn: golden record aliases this scratch's buffers at layer %d; produce the golden record with a separate scratch", li)
			}
		}
	}
	rec := s.rec
	rec.Steps = steps
	for li := 0; li < start; li++ {
		rec.Layers[li] = golden.Layers[li]
	}
	for li := start; li < len(n.Layers); li++ {
		if s.own[li] == nil || s.own[li].Dim(0) != steps {
			s.own[li] = tensor.New(steps, n.Layers[li].NumNeurons())
		}
		rec.Layers[li] = s.own[li]
		s.states[li].reset()
	}
	if !s.reference {
		for li := start; li < len(n.Layers); li++ {
			s.kernels[li].bind(n.Layers[li])
		}
	}
	var outRow, goldenRow *tensor.Tensor
	if stopOnDiverge {
		outRow, goldenRow = rec.Layers[last], golden.Layers[last]
	}
	var t0 time.Time
	if obs.On() {
		t0 = time.Now()
	}
	layerSteps := 0
	for t := 0; t < steps; t++ {
		if s.reference {
			s.referenceStep(start, t, stimulus, golden, rec)
		} else {
			s.fusedStep(start, t, stimulus, golden, rec)
		}
		layerSteps += len(n.Layers) - start
		if stopOnDiverge && !tensor.RowEqual(outRow, goldenRow, t) {
			s.lastSimSteps = t + 1
			if obs.On() {
				s.observe(rec, start, t+1, layerSteps, time.Since(t0))
			}
			return rec, layerSteps, true
		}
	}
	s.lastSimSteps = steps
	if obs.On() {
		s.observe(rec, start, steps, layerSteps, time.Since(t0))
	}
	return rec, layerSteps, false
}

// observe flushes one run's hot-path counters and latency histogram: a
// forward pass, the simulated layer-steps, the spikes emitted in the
// simulated region (layers ≥ start over the first simSteps steps;
// replayed golden layers below start are not re-counted), and the pass
// duration. Callers
// gate it behind obs.On(), so the disabled layer costs the simulation
// loop exactly one branch.
func (s *Scratch) observe(rec *Record, start, simSteps, layerSteps int, elapsed time.Duration) {
	obsForwardPasses.Add(1)
	obsLayerSteps.Add(int64(layerSteps))
	obsForwardHist.Observe(elapsed)
	spikes := int64(0)
	for li := start; li < len(s.net.Layers); li++ {
		nn := s.net.Layers[li].NumNeurons()
		for _, v := range rec.Layers[li].RawRange(0, simSteps*nn) {
			// Spikes are exactly 0 or 1 by construction; truncation counts
			// them without a float comparison.
			spikes += int64(v)
		}
	}
	obsSpikes.Add(spikes)
}

// fusedStep advances every simulated layer by one time step on the fused
// zero-allocation path: raw stimulus/golden/record rows flow between the
// layer kernels as plain slices, with no tensor headers materialized.
//
//snn:hotpath
func (s *Scratch) fusedStep(start, t int, stimulus *tensor.Tensor, golden *Record, rec *Record) {
	n := s.net
	var in []float64
	if start == 0 {
		in = stimulus.RawRange(t*s.frame, s.frame)
	} else {
		w := n.Layers[start-1].NumNeurons()
		in = golden.Layers[start-1].RawRange(t*w, w)
	}
	for li := start; li < len(n.Layers); li++ {
		k := s.kernels[li]
		out := rec.Layers[li].RawRange(t*k.nn, k.nn)
		k.step(n.Layers[li], s.states[li], in, out)
		in = out
	}
}

// referenceStep advances every simulated layer by one time step on the
// reference path: per-layer Projection.Forward materializes the synaptic
// current tensor, then stepLayer applies the LIF update. It allocates per
// (layer, step) by design — this is the differential baseline the fused
// kernels are pinned against.
func (s *Scratch) referenceStep(start, t int, stimulus *tensor.Tensor, golden *Record, rec *Record) {
	n := s.net
	var in *tensor.Tensor
	if start == 0 {
		in = stimulus.Step(t)
	} else {
		in = golden.ReplayInput(start, t)
	}
	for li := start; li < len(n.Layers); li++ {
		l := n.Layers[li]
		st := s.states[li]
		var lastOut *tensor.Tensor
		if st.recurrent {
			lastOut = st.lastSpikeT
		}
		cur := l.Proj.Forward(in, lastOut)
		cd := cur.Data()
		out := rec.Layers[li].RawRange(t*len(cd), len(cd))
		stepLayer(l, st, cd, out)
		in = tensor.FromSlice(out, st.outShape...)
	}
}

// lifUpdate applies one LIF update to neuron i given its synaptic current
// c, returning the emitted spike (0 or 1). It is the single source of
// truth for the membrane dynamics: the reference stepLayer and every
// fused kernel call it, so the two simulation paths cannot drift.
//
//snn:hotpath
func lifUpdate(l *Layer, st *fastLayerState, i int, c float64) float64 {
	switch l.mode(i) {
	case NeuronDead:
		// Halts propagation: never fires. Membrane bookkeeping
		// is irrelevant downstream; keep it reset.
		st.u[i] = 0
		return 0
	case NeuronSaturated:
		// Fires non-stop regardless of input or refractoriness.
		st.u[i] = 0
		return 1
	}
	gate := 1.0
	if st.refrac[i] > 0 {
		gate = 0
	}
	u := gate * (l.leak(i)*st.u[i]*(1-st.lastSpike[i]) + c)
	fired := u > l.threshold(i)
	st.u[i] = u
	if st.refrac[i] > 0 {
		st.refrac[i]--
	} else if fired {
		st.refrac[i] = l.refractory(i)
	}
	if fired {
		return 1
	}
	return 0
}

// stepLayer advances one layer by one time step: cd is the synaptic
// current, out receives the output spikes, st carries the LIF state.
// Both engines run their LIF sweep through this function — the reference
// path from referenceStep, the fused kernels from layerKernel.step — so
// the membrane dynamics cannot drift between them.
//
// A layer with no fault overrides takes a specialized loop with the
// layer-wide LIF parameters hoisted out: it evaluates the exact
// expression lifUpdate evaluates with the exact values the per-neuron
// accessors would return, just without re-checking the override slices
// for every neuron. TestStepLayerHealthyMatchesOverrides pins the two
// loops against each other bit for bit.
//
//snn:hotpath
func stepLayer(l *Layer, st *fastLayerState, cd, out []float64) {
	if l.HasFaultOverrides() {
		for i := range cd {
			s := lifUpdate(l, st, i, cd[i])
			out[i] = s
			st.lastSpike[i] = s
		}
		return
	}
	leak, th := l.LIF.Leak, l.LIF.Threshold
	refr := l.LIF.Refractory
	u := st.u[:len(cd)]
	last := st.lastSpike[:len(cd)]
	refrac := st.refrac[:len(cd)]
	out = out[:len(cd)]
	for i, c := range cd {
		gate := 1.0
		if refrac[i] > 0 {
			gate = 0
		}
		v := gate * (leak*u[i]*(1-last[i]) + c)
		fired := v > th
		u[i] = v
		if refrac[i] > 0 {
			refrac[i]--
		} else if fired {
			refrac[i] = refr
		}
		s := 0.0
		if fired {
			s = 1
		}
		out[i] = s
		last[i] = s
	}
}

// Run simulates the network on the stimulus (shape [T, InShape...]) from a
// fresh state and records every neuron's output spike train. This is the
// fast, non-differentiable path used for inference and fault simulation.
func (n *Network) Run(input *tensor.Tensor) *Record {
	rec, _, _ := n.NewScratch().runFrom(0, nil, input, false)
	return rec
}

// RunFrom simulates only layers ≥ start, replaying the golden record's
// layer start-1 spike trains as layer start's input (the stimulus when
// start == 0). It is exact whenever the network differs from the golden
// network only at layers ≥ start — the incremental fault-simulation fast
// path. Layers < start of the returned record alias the golden record and
// must be treated as read-only.
func (n *Network) RunFrom(start int, golden *Record, stimulus *tensor.Tensor) *Record {
	rec, _, _ := n.NewScratch().runFrom(start, golden, stimulus, false)
	return rec
}

// RunFrom is the scratch-reusing variant of Network.RunFrom; it also
// reports the number of simulated layer-steps. The returned record's
// layers ≥ start are owned by the scratch and overwritten by the next
// call; layers < start alias golden.
func (s *Scratch) RunFrom(start int, golden *Record, stimulus *tensor.Tensor) (*Record, int) {
	rec, layerSteps, _ := s.runFrom(start, golden, stimulus, false)
	return rec, layerSteps
}

// LastSimSteps reports how many stimulus timesteps the scratch's most
// recent RunFrom/DivergesFrom call simulated: the full duration for a
// completed run, or the early-exit point — first divergence step + 1 —
// when DivergesFrom stopped short. The flight recorder derives the
// per-fault first-divergence timestep from it without the simulation
// loop carrying any event plumbing.
func (s *Scratch) LastSimSteps() int { return s.lastSimSteps }

// DivergesFrom simulates layers ≥ start with golden-trace replay and
// early exit: it returns true at the first time step whose output row
// differs from the golden record (the Eq. 3 any-L1-difference detection
// criterion), without simulating the remaining steps. The second result
// is the number of layer-steps actually simulated.
func (s *Scratch) DivergesFrom(start int, golden *Record, stimulus *tensor.Tensor) (bool, int) {
	_, layerSteps, diverged := s.runFrom(start, golden, stimulus, true)
	return diverged, layerSteps
}

// Predict runs the network on the stimulus and returns the rate-decoded
// class: the output neuron with the highest spike count (ties break to the
// lowest index).
func (n *Network) Predict(input *tensor.Tensor) int {
	rec := n.Run(input)
	return tensor.ArgMax(rec.Counts(len(n.Layers) - 1))
}
