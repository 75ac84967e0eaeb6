// Package fault implements behavioural fault modeling, injection and
// simulation for spiking neural networks, following Section III of the
// paper: neuron faults (dead, saturated, parametric timing variation) and
// synapse faults (dead, positively/negatively saturated, memory bit-flip).
//
// The default fault universe matches the paper's campaign arithmetic
// exactly — two behavioural faults per neuron and three weight faults per
// synapse (the Table II totals are 2·#neurons and 3·#synapses for every
// benchmark) — with the parametric and bit-flip faults available as
// extensions.
//
// A fault is detected by a test stimulus when it perturbs the output
// spike trains: ‖O^L − O^L(f)‖₁ > 0 (Eq. 3). A fault is critical when it
// flips the top-1 prediction of at least one dataset sample; otherwise it
// is benign.
package fault

import "fmt"

// Kind identifies the behavioural fault type.
type Kind uint8

const (
	// NeuronDead halts all spike propagation through the neuron.
	NeuronDead Kind = iota
	// NeuronSaturated makes the neuron fire at every time step.
	NeuronSaturated
	// NeuronThresholdVar perturbs the neuron's firing threshold by the
	// fault's Delta factor (timing-variation fault).
	NeuronThresholdVar
	// NeuronLeakVar perturbs the neuron's membrane leak by Delta.
	NeuronLeakVar
	// NeuronRefractoryVar adds Delta (rounded) steps of refractory period.
	NeuronRefractoryVar
	// SynapseDead zeroes the synapse weight.
	SynapseDead
	// SynapseSatPos saturates the weight to a large positive outlier with
	// respect to the layer's weight distribution.
	SynapseSatPos
	// SynapseSatNeg saturates the weight to a large negative outlier.
	SynapseSatNeg
	// SynapseBitFlip flips bit Bit of the weight's 8-bit fixed-point
	// representation (the digital storage fault of Section III).
	SynapseBitFlip
)

// IsNeuron reports whether the kind targets a neuron (as opposed to a
// synapse weight).
func (k Kind) IsNeuron() bool { return k <= NeuronRefractoryVar }

func (k Kind) String() string {
	switch k {
	case NeuronDead:
		return "neuron-dead"
	case NeuronSaturated:
		return "neuron-saturated"
	case NeuronThresholdVar:
		return "neuron-threshold-var"
	case NeuronLeakVar:
		return "neuron-leak-var"
	case NeuronRefractoryVar:
		return "neuron-refractory-var"
	case SynapseDead:
		return "synapse-dead"
	case SynapseSatPos:
		return "synapse-sat-pos"
	case SynapseSatNeg:
		return "synapse-sat-neg"
	case SynapseBitFlip:
		return "synapse-bitflip"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Fault is one injectable hardware fault, addressed by layer plus neuron
// or synapse index (the layer-contiguous conventions of package snn).
type Fault struct {
	Kind    Kind
	Layer   int
	Neuron  int     // valid when Kind.IsNeuron()
	Synapse int     // valid for synapse kinds
	Bit     int     // valid for SynapseBitFlip: 0 (LSB) … 7 (sign)
	Delta   float64 // perturbation factor for parametric kinds
}

// StartLayer returns the index of the first layer whose activity the
// fault can perturb — the replay start site of the incremental campaign.
// Both neuron and synapse faults first alter their own layer's spike
// output (a synapse fault changes the current entering that layer's
// neurons), so every layer below is bit-identical to the golden run and
// can be replayed from the golden record instead of re-simulated.
// Enumerate tags each fault with this layer index.
func (f Fault) StartLayer() int { return f.Layer }

func (f Fault) String() string {
	if f.Kind.IsNeuron() {
		if f.Delta != 0 { //lint:ignore floateq 0 is the unset sentinel for Delta in display formatting
			return fmt.Sprintf("%s L%d N%d Δ=%g", f.Kind, f.Layer, f.Neuron, f.Delta)
		}
		return fmt.Sprintf("%s L%d N%d", f.Kind, f.Layer, f.Neuron)
	}
	if f.Kind == SynapseBitFlip {
		return fmt.Sprintf("%s L%d S%d bit%d", f.Kind, f.Layer, f.Synapse, f.Bit)
	}
	return fmt.Sprintf("%s L%d S%d", f.Kind, f.Layer, f.Synapse)
}

// SaturationFactor scales a layer's maximum absolute weight to form the
// saturated-synapse outlier value, per the paper's "very large (small)
// weight making it a positive (negative) outlier" definition.
const SaturationFactor = 3.0

// Options selects which fault classes Enumerate includes.
type Options struct {
	// Core faults (the paper's campaign universe).
	NeuronDeadSaturated bool
	SynapseDeadSat      bool

	// Extensions.
	TimingVariation bool      // threshold/leak/refractory parametric faults
	TimingDeltas    []float64 // perturbation factors; default {0.5, 1.5}
	BitFlips        bool      // per-bit flips of 8-bit quantized weights
	BitFlipBits     []int     // which bits; default {0, 3, 6, 7}
}

// DefaultOptions matches the paper's Table II universe: 2 faults per
// neuron and 3 per synapse.
func DefaultOptions() Options {
	return Options{NeuronDeadSaturated: true, SynapseDeadSat: true}
}

// ExtendedOptions adds the parametric timing-variation and bit-flip
// faults of Section III on top of the default universe.
func ExtendedOptions() Options {
	o := DefaultOptions()
	o.TimingVariation = true
	o.TimingDeltas = []float64{0.5, 1.5}
	o.BitFlips = true
	o.BitFlipBits = []int{0, 3, 6, 7}
	return o
}
