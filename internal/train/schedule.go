package train

import "math"

// CosineSchedule maps an optimization step index to a hyperparameter
// value that anneals from Initial to Floor over Period steps following a
// half cosine, then stays at Floor. The paper anneals both the Adam
// learning rate and the Gumbel-Softmax temperature over each stage this
// way.
type CosineSchedule struct {
	Initial float64
	Floor   float64
	Period  int
}

// At returns the value at step.
func (s CosineSchedule) At(step int) float64 {
	if s.Period <= 0 || step >= s.Period {
		return s.Floor
	}
	frac := float64(step) / float64(s.Period)
	return s.Floor + (s.Initial-s.Floor)*0.5*(1+math.Cos(math.Pi*frac))
}
