package fault

import (
	"fmt"

	"github.com/repro/snntest/internal/snn"
)

// failf is the package's invariant-check chokepoint for conditions the
// campaign entry points have already validated (see Validate); hitting
// it means a caller bypassed validation, which is a programmer error.
func failf(format string, args ...any) {
	panic("fault: " + fmt.Sprintf(format, args...))
}

// knownKind reports whether k is a defined fault kind.
func knownKind(k Kind) bool { return k <= SynapseBitFlip }

// Validate checks that the network's weights are finite — the
// precondition under which the event-driven simulator kernels match the
// reference path — and that every fault addresses an existing layer,
// neuron or synapse of the network and has a known kind. Campaign entry
// points (SimulateWith, ClassifyWith) call it once before their injection loops
// so the loops themselves can rely on panic-free, exact simulation.
func Validate(net *snn.Network, faults []Fault) error {
	if err := net.CheckFiniteWeights(); err != nil {
		return fmt.Errorf("fault: golden network: %w", err)
	}
	for i, f := range faults {
		if !knownKind(f.Kind) {
			return fmt.Errorf("fault: fault %d: unknown kind %v", i, f.Kind)
		}
		if f.Layer < 0 || f.Layer >= len(net.Layers) {
			return fmt.Errorf("fault: fault %d (%v): layer %d out of range [0, %d)", i, f, f.Layer, len(net.Layers))
		}
		l := net.Layers[f.Layer]
		if f.Kind.IsNeuron() {
			if f.Neuron < 0 || f.Neuron >= l.NumNeurons() {
				return fmt.Errorf("fault: fault %d (%v): neuron %d out of range [0, %d) in layer %q", i, f, f.Neuron, l.NumNeurons(), l.Name)
			}
			continue
		}
		if ns := l.NumSynapses(); f.Synapse < 0 || f.Synapse >= ns {
			return fmt.Errorf("fault: fault %d (%v): synapse %d out of range [0, %d) in layer %q", i, f, f.Synapse, ns, l.Name)
		}
		if f.Kind == SynapseBitFlip && (f.Bit < 0 || f.Bit > 7) {
			return fmt.Errorf("fault: fault %d (%v): bit %d out of range [0, 7]", i, f, f.Bit)
		}
	}
	return nil
}
