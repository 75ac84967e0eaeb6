package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/repro/snntest/internal/profparse"
)

// kernelPhases are the spans where generation CPU is supposed to live:
// the fused stepLayer/LIF kernels run inside the restart growth loops,
// the stage-2 extension, and the T_in,min calibration (whose subtree
// covers the parallel per-candidate spans by name prefix). The verify.sh
// attribution gate checks that their cumulative share of the kernelRoot
// subtree stays high — CPU leaking into bookkeeping phases is the
// regression it exists to catch.
const (
	kernelPhases = "generate/restart,generate/stage2,generate/calibrate"
	kernelRoot   = "generate"
)

// profileChecks records the gate evaluation alongside the fold in
// BENCH_profile.json, so CI artifacts show not just the table but what
// was asserted about it.
type profileChecks struct {
	MinSamples     int64   `json:"min_samples"`
	Gated          bool    `json:"gated"` // false when the sample floor skipped the gates
	MinLabeled     float64 `json:"min_labeled,omitempty"`
	KernelMin      float64 `json:"kernel_min,omitempty"`
	KernelPhases   string  `json:"kernel_phases,omitempty"`
	KernelRoot     string  `json:"kernel_root,omitempty"`
	KernelFraction float64 `json:"kernel_fraction"`
	Pass           bool    `json:"pass"`
}

// profileArtifact is the BENCH_profile.json schema (DESIGN.md §6).
type profileArtifact struct {
	Source string                `json:"source"`
	Report profparse.PhaseReport `json:"report"`
	Checks profileChecks         `json:"checks"`
}

// runProfile is the -profile mode: fold a pprof CPU profile by phase
// label, render the per-phase table, write BENCH_profile.json, and
// enforce the attribution gates. Pure file analysis — no pipelines, no
// obs setup — so the output is a deterministic function of the profile.
func runProfile(w io.Writer, path, outPath string, minLabeled, kernelMin float64, minSamples int) error {
	p, err := profparse.ParseFile(path)
	if err != nil {
		return err
	}
	r := profparse.FoldByPhase(p, "cpu")

	fmt.Fprintf(w, "phase-attributed CPU profile: %s\n", path)
	fmt.Fprintf(w, "%d samples, %s %s total, %.1f%% phase-labelled\n\n",
		r.TotalSamples, renderValue(r.TotalValue, r.SampleUnit), r.SampleUnit, 100*r.LabeledFraction)
	fmt.Fprintf(w, "%-36s %10s %6s %10s %6s %8s\n", "phase", "flat", "%", "cum", "%", "samples")
	for _, st := range r.Phases {
		fmt.Fprintf(w, "%-36s %10s %5.1f%% %10s %5.1f%% %8d\n",
			st.Phase, renderValue(st.Flat, r.SampleUnit), 100*st.FlatFraction,
			renderValue(st.Cum, r.SampleUnit), 100*st.CumFraction, st.Samples)
	}

	checks := profileChecks{
		MinSamples:   int64(minSamples),
		MinLabeled:   minLabeled,
		KernelMin:    kernelMin,
		KernelPhases: kernelPhases,
		KernelRoot:   kernelRoot,
		Pass:         true,
	}
	var kernelCum int64
	for _, phase := range strings.Split(kernelPhases, ",") {
		kernelCum += r.CumValue(phase)
	}
	if rootCum := r.CumValue(kernelRoot); rootCum > 0 {
		checks.KernelFraction = float64(kernelCum) / float64(rootCum)
	}
	fmt.Fprintf(w, "\nkernel share of %s: %.1f%% (phases: %s)\n", kernelRoot, 100*checks.KernelFraction, kernelPhases)

	var failures []string
	checks.Gated = r.TotalSamples >= int64(minSamples)
	if !checks.Gated {
		fmt.Fprintf(w, "gates skipped: %d samples < floor %d (run longer to gate)\n", r.TotalSamples, minSamples)
	} else {
		if minLabeled > 0 && r.LabeledFraction < minLabeled {
			failures = append(failures, fmt.Sprintf("labelled fraction %.3f < required %.3f", r.LabeledFraction, minLabeled))
		}
		if kernelMin > 0 {
			if r.CumValue(kernelRoot) == 0 {
				failures = append(failures, fmt.Sprintf("no CPU attributed to %s — cannot check kernel share", kernelRoot))
			} else if checks.KernelFraction < kernelMin {
				failures = append(failures, fmt.Sprintf("kernel share %.3f of %s < required %.3f", checks.KernelFraction, kernelRoot, kernelMin))
			}
		}
	}
	checks.Pass = len(failures) == 0

	if outPath != "" {
		art := profileArtifact{Source: path, Report: r, Checks: checks}
		data, err := json.MarshalIndent(art, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "profile report written to %s\n", outPath)
	}
	if len(failures) > 0 {
		return fmt.Errorf("profile attribution gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// renderValue formats a sample value for the table: nanosecond units
// become milliseconds, anything else prints raw.
func renderValue(v int64, unit string) string {
	if unit == "nanoseconds" {
		return fmt.Sprintf("%.1fms", float64(v)/1e6)
	}
	return fmt.Sprintf("%d", v)
}
