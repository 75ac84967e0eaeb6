package lint

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// writeModule lays out a temp module from a map of relative path →
// contents and returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for rel, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// dirtyModule is a three-package module (c → b → a) with deliberate
// deferloop and floateq findings spread across packages, so driver tests
// exercise real multi-package output rather than an empty slice.
func dirtyModule(t *testing.T) string {
	return writeModule(t, map[string]string{
		"go.mod": "module example.com/dirty\n\ngo 1.22\n",
		"a/a.go": `package a

func Close(fns []func()) {
	for _, f := range fns {
		defer f()
	}
}

func Same(x, y float64) bool { return x == y }
`,
		"b/b.go": `package b

import "example.com/dirty/a"

func Both(x float64, fns []func()) bool {
	a.Close(fns)
	return x != 0
}
`,
		"c/c.go": `package c

import "example.com/dirty/b"

func Run(fns []func()) {
	for range fns {
		defer b.Both(0, fns)
	}
}
`,
	})
}

// TestDriverDeterministicAcrossWorkerCounts is the parallel-determinism
// gate (run under -race by verify.sh): the same module analyzed with
// 1, 2 and 8 workers, cold and repeated, must produce bit-identical
// sorted diagnostics.
func TestDriverDeterministicAcrossWorkerCounts(t *testing.T) {
	dir := dirtyModule(t)
	var want []Diagnostic
	for run, workers := range []int{1, 2, 8, 8} {
		res, err := AnalyzeModule(dir, All(), Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res.Diagnostics) == 0 {
			t.Fatalf("workers=%d: no diagnostics from the dirty module", workers)
		}
		if run == 0 {
			want = res.Diagnostics
			continue
		}
		if !reflect.DeepEqual(res.Diagnostics, want) {
			t.Errorf("workers=%d diagnostics differ from workers=1:\n got %v\nwant %v", workers, res.Diagnostics, want)
		}
	}
}

// TestDriverDeterministicOnRealModule repeats the gate on the enclosing
// repo (zero findings, many packages, real dependency fan-in).
func TestDriverDeterministicOnRealModule(t *testing.T) {
	if testing.Short() {
		t.Skip("module-wide driver run is slow")
	}
	a, err := AnalyzeModule(".", All(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := AnalyzeModule(".", All(), Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Diagnostics, b.Diagnostics) {
		t.Errorf("worker count changed module diagnostics:\n1: %v\n8: %v", a.Diagnostics, b.Diagnostics)
	}
}

// TestDriverCacheWarmAndInvalidation checks the three cache regimes:
// cold (everything analyzed), warm (everything cached, identical
// output), and after editing one package (only it and its dependents
// re-analyzed, output reflecting the edit).
func TestDriverCacheWarmAndInvalidation(t *testing.T) {
	dir := dirtyModule(t)
	cache := filepath.Join(dir, "cache.json")
	opts := Options{CachePath: cache}

	cold, err := AnalyzeModule(dir, All(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.Cached != 0 || cold.Stats.Analyzed != cold.Stats.Packages {
		t.Fatalf("cold run: %+v", cold.Stats)
	}

	warm, err := AnalyzeModule(dir, All(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Analyzed != 0 || warm.Stats.Cached != warm.Stats.Packages {
		t.Fatalf("warm run did not serve everything from cache: %+v", warm.Stats)
	}
	if !reflect.DeepEqual(warm.Diagnostics, cold.Diagnostics) {
		t.Errorf("warm diagnostics differ:\ncold %v\nwarm %v", cold.Diagnostics, warm.Diagnostics)
	}

	// Fix package a's float comparison: a and its dependents (b, c) get
	// new action IDs; nothing else must be re-analyzed.
	src, err := os.ReadFile(filepath.Join(dir, "a/a.go"))
	if err != nil {
		t.Fatal(err)
	}
	fixed := strings.Replace(string(src), "return x == y", "return x < y || x > y", 1)
	if fixed == string(src) {
		t.Fatal("edit did not apply")
	}
	if err := os.WriteFile(filepath.Join(dir, "a/a.go"), []byte(fixed), 0o644); err != nil {
		t.Fatal(err)
	}

	edited, err := AnalyzeModule(dir, All(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if edited.Stats.Analyzed != 3 {
		t.Errorf("edit should re-analyze a, b and c, got %+v", edited.Stats)
	}
	if len(edited.Diagnostics) != len(cold.Diagnostics)-1 {
		t.Errorf("fixed finding still reported: %v", edited.Diagnostics)
	}
	for _, d := range edited.Diagnostics {
		if strings.Contains(d.File, "a.go") && d.Analyzer == "floateq" {
			t.Errorf("stale floateq finding survived the edit: %v", d)
		}
	}
}

// TestDriverCacheCorruptionIsCold asserts corruption downgrades to a
// cold run instead of failing.
func TestDriverCacheCorruptionIsCold(t *testing.T) {
	dir := dirtyModule(t)
	cache := filepath.Join(dir, "cache.json")
	if err := os.WriteFile(cache, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := AnalyzeModule(dir, All(), Options{CachePath: cache})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cached != 0 || res.Stats.Analyzed != res.Stats.Packages {
		t.Errorf("corrupt cache was not treated as cold: %+v", res.Stats)
	}
}

// TestSuppressDirectives covers the directive pipeline: trailing and
// own-line directives suppress, unused and malformed directives are
// themselves findings.
func TestSuppressDirectives(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module example.com/sup\n\ngo 1.22\n",
		"p/p.go": `package p

func Trailing(x, y float64) bool {
	return x == y //lint:ignore floateq exact by construction in this test
}

func OwnLine(x, y float64) bool {
	//lint:ignore floateq exact by construction in this test
	return x == y
}

//lint:ignore floateq nothing to suppress here
func Unused() {}

func Malformed(x, y float64) bool {
	return x == y //lint:ignore floateq
}
`,
	})
	res, err := AnalyzeModule(dir, All(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Suppressed != 2 {
		t.Errorf("suppressed = %d, want 2 (trailing + own-line)", res.Stats.Suppressed)
	}
	var unused, malformed, floateq int
	for _, d := range res.Diagnostics {
		switch {
		case d.Analyzer == SuppressAnalyzer && strings.Contains(d.Message, "unused"):
			unused++
		case d.Analyzer == SuppressAnalyzer && strings.Contains(d.Message, "malformed"):
			malformed++
		case d.Analyzer == "floateq":
			floateq++
		}
	}
	if unused != 1 || malformed != 1 {
		t.Errorf("got %d unused and %d malformed directive findings, want 1 and 1: %v", unused, malformed, res.Diagnostics)
	}
	// Malformed directive must not suppress: its line's finding survives.
	if floateq != 1 {
		t.Errorf("got %d surviving floateq findings, want 1 (under the malformed directive): %v", floateq, res.Diagnostics)
	}
}
