//go:build !race

package snn

// raceEnabled reports whether the test binary runs under the race
// detector.
const raceEnabled = false
