package lint

import (
	"sort"
	"time"
)

// Stats summarizes one driver run.
type Stats struct {
	// Packages is the number of packages in the module.
	Packages int
	// Suppressed counts findings dropped by //lint:ignore directives.
	Suppressed int
	// Wall is the end-to-end driver time, load to sorted output.
	Wall time.Duration
}

// Result is a driver run's sorted diagnostics plus its statistics.
type Result struct {
	Diagnostics []Diagnostic
	Stats       Stats
}

// AnalyzeModule loads the module rooted at (or above) dir and runs the
// analyzers over it (LoadModule followed by Run).
func AnalyzeModule(dir string, analyzers []*Analyzer) (*Result, error) {
	start := time.Now()
	mod, err := LoadModule(dir)
	if err != nil {
		return nil, err
	}
	res := Run(mod, analyzers)
	res.Stats.Wall = time.Since(start)
	return res, nil
}

// Run applies the analyzers to every package of a loaded module plus the
// module-level go.mod dependency check, honoring //lint:ignore
// suppressions, and returns the diagnostics sorted by diagLess.
func Run(mod *Module, analyzers []*Analyzer) *Result {
	res := &Result{Stats: Stats{Packages: len(mod.Pkgs)}}
	for _, pkg := range mod.Pkgs {
		var raw []Diagnostic
		for _, a := range analyzers {
			raw = append(raw, RunPackage(mod, pkg, a)...)
		}
		kept, suppressed := applySuppressions(mod, pkg, raw)
		res.Diagnostics = append(res.Diagnostics, kept...)
		res.Stats.Suppressed += suppressed
	}
	// The go.mod dependency policy is module-level, not per-package.
	for _, a := range analyzers {
		if a == StdlibOnly {
			res.Diagnostics = append(res.Diagnostics, goModDiagnostics(mod)...)
		}
	}
	sort.Slice(res.Diagnostics, func(i, j int) bool { return diagLess(res.Diagnostics[i], res.Diagnostics[j]) })
	return res
}
