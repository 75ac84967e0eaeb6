package lint

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// Options configures an AnalyzeModule run.
type Options struct {
	// Workers bounds the type-checking and analysis concurrency;
	// <= 0 means GOMAXPROCS. Results are identical for every value.
	Workers int
	// CachePath names the persistent diagnostics cache file; empty
	// disables caching.
	CachePath string
}

// Stats summarizes one driver run.
type Stats struct {
	// Packages is the number of packages in the module.
	Packages int
	// Analyzed is how many packages had their analyzers run this time.
	Analyzed int
	// Cached is how many packages were served from the cache.
	Cached int
	// Suppressed counts findings dropped by //lint:ignore directives
	// (including inside cached packages).
	Suppressed int
	// Wall is the end-to-end driver time, scan to sorted output.
	Wall time.Duration
}

// Result is a driver run's sorted diagnostics plus its statistics.
type Result struct {
	Diagnostics []Diagnostic
	Stats       Stats
}

// AnalyzeModule is the incremental parallel driver: it scans the module
// rooted at (or above) dir, serves unchanged packages from the cache,
// type-checks and analyzes the rest concurrently, applies //lint:ignore
// suppressions, and returns globally sorted diagnostics. The output is
// bit-identical for any worker count and for warm versus cold caches.
func AnalyzeModule(dir string, analyzers []*Analyzer, opts Options) (*Result, error) {
	start := time.Now()
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	mod, err := ScanModule(dir)
	if err != nil {
		return nil, err
	}

	var cache *Cache
	if opts.CachePath != "" {
		cache = OpenCache(opts.CachePath)
	}
	fingerprint := suiteFingerprint(mod, analyzers)
	actions := actionIDs(mod, fingerprint)

	res := &Result{Stats: Stats{Packages: len(mod.Pkgs)}}
	perPkg := make(map[*Package][]Diagnostic, len(mod.Pkgs))
	var misses []*Package
	for _, pkg := range mod.Pkgs {
		if diags, suppressed, ok := cache.get(mod.Dir, pkg.Path, actions[pkg]); ok {
			perPkg[pkg] = diags
			res.Stats.Cached++
			res.Stats.Suppressed += suppressed
			continue
		}
		misses = append(misses, pkg)
	}

	if len(misses) > 0 {
		if err := mod.EnsureChecked(misses, workers); err != nil {
			return nil, err
		}
		var mu sync.Mutex
		err := runLimited(misses, workers, func(pkg *Package) error {
			diags := analyzePackage(mod, pkg, analyzers)
			kept, suppressed := applySuppressions(mod, pkg, diags)
			cachePut(&mu, cache, mod.Dir, pkg.Path, actions[pkg], kept, suppressed)
			mu.Lock()
			perPkg[pkg] = kept
			res.Stats.Analyzed++
			res.Stats.Suppressed += suppressed
			mu.Unlock()
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	var diags []Diagnostic
	for _, pkg := range mod.Pkgs {
		diags = append(diags, perPkg[pkg]...)
	}
	// The go.mod dependency policy is module-level, not per-package, so
	// it runs outside the per-package cache (it is trivially cheap).
	for _, a := range analyzers {
		if a == StdlibOnly {
			diags = append(diags, goModDiagnostics(mod)...)
		}
	}
	sort.Slice(diags, func(i, j int) bool { return diagLess(diags[i], diags[j]) })
	res.Diagnostics = diags

	if err := cache.Save(); err != nil {
		return nil, err
	}
	res.Stats.Wall = time.Since(start)
	return res, nil
}

// cachePut serializes cache writes from the analysis workers.
func cachePut(mu *sync.Mutex, cache *Cache, modDir, pkgPath, action string, diags []Diagnostic, suppressed int) {
	if cache == nil {
		return
	}
	mu.Lock()
	defer mu.Unlock()
	cache.put(modDir, pkgPath, action, diags, suppressed)
}

// analyzePackage runs every analyzer over one type-checked package and
// returns the raw (pre-suppression) diagnostics.
func analyzePackage(mod *Module, pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		a.Run(&Pass{
			Fset:     mod.Fset,
			Path:     pkg.Path,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Module:   mod,
			analyzer: a,
			diags:    &diags,
		})
	}
	return diags
}
