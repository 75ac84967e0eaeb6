// In-field testing: the deployment scenario the paper's compact test
// enables. The optimized stimulus is generated once, stored on-chip (here:
// serialized alongside its golden response), and re-applied periodically
// while the device operates. Faults appearing over the device lifetime —
// aging, latent defects — are caught at the next test window by comparing
// the output spike trains against the golden response (Eq. 3).
//
// The demo simulates a device lifetime with randomly arriving faults and
// reports the detection latency of each.
//
//	go run ./examples/infield_test
package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"

	snntest "github.com/repro/snntest"
	"github.com/repro/snntest/internal/fault"
	"github.com/repro/snntest/internal/tensor"
)

func main() {
	rng := rand.New(rand.NewSource(1))
	net, err := snntest.BuildSHD(rng, snntest.ScaleTiny)
	if err != nil {
		fatal(err)
	}

	// One-time test generation (post-manufacturing) and golden-response
	// capture. In a real deployment both are burned into on-chip memory:
	// the stimulus here is a few hundred binary frames — kilobytes.
	cfg := snntest.TestGenConfig()
	cfg.Seed = 2
	gen, err := snntest.GenerateTest(context.Background(), net, cfg)
	if err != nil {
		fatal(err)
	}
	golden := net.Run(gen.Stimulus).Output().Clone()
	bits := gen.Stimulus.Len()
	fmt.Printf("stored test: %d steps (%d bits ≈ %.1f KiB packed), golden response %d spikes\n\n",
		gen.TotalSteps(), bits, float64(bits)/8/1024, int(tensor.Sum(golden)))

	// Device lifetime: every "day" there is a chance a new fault appears;
	// the stored test runs every testPeriod days.
	const (
		lifetimeDays = 365
		testPeriod   = 30
		faultChance  = 0.02
	)
	universe := snntest.EnumerateFaults(net)
	inj := fault.NewInjector(net)
	device := inj.Net()

	type liveFault struct {
		f        snntest.Fault
		appeared int
	}
	var active []liveFault
	detectedAt := map[int]int{} // appearance day → detection day

	for day := 1; day <= lifetimeDays; day++ {
		if rng.Float64() < faultChance {
			f := universe[rng.Intn(len(universe))]
			inj.Apply(f) // fault persists: no revert in this scenario
			active = append(active, liveFault{f: f, appeared: day})
		}
		if day%testPeriod != 0 {
			continue
		}
		// Periodic in-field test: apply the stored stimulus, compare
		// output spike trains to the golden response.
		out := device.Run(gen.Stimulus).Output()
		if tensor.L1Diff(golden, out) > 0 {
			for _, lf := range active {
				if _, done := detectedAt[lf.appeared]; !done {
					detectedAt[lf.appeared] = day
				}
			}
			fmt.Printf("day %3d: TEST FAILED — %d active fault(s), last injected %v\n",
				day, len(active), active[len(active)-1].f)
		} else {
			fmt.Printf("day %3d: test passed (%d latent fault(s) present)\n", day, len(active))
		}
	}

	fmt.Printf("\nlifetime summary: %d faults appeared, %d detected by the periodic test\n",
		len(active), len(detectedAt))
	for _, lf := range active {
		if d, ok := detectedAt[lf.appeared]; ok {
			fmt.Printf("  %v: appeared day %d, detected day %d (latency %d days)\n",
				lf.f, lf.appeared, d, d-lf.appeared)
		} else {
			fmt.Printf("  %v: appeared day %d, NOT detected (benign for this stimulus)\n",
				lf.f, lf.appeared)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "infield_test:", err)
	os.Exit(1)
}
