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

// TestDriverDirtyModuleDiagnostics pins the exact sorted diagnostics of
// the three-package module: findings in b and c are only reachable once
// their imports of a (and b) resolve, so this also proves the loader
// type-checks packages in dependency order.
func TestDriverDirtyModuleDiagnostics(t *testing.T) {
	dir := dirtyModule(t)
	res, err := AnalyzeModule(dir, All())
	if err != nil {
		t.Fatal(err)
	}
	type site struct {
		analyzer, file string
		line           int
	}
	var got []site
	for _, d := range res.Diagnostics {
		rel, err := filepath.Rel(dir, d.File)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, site{d.Analyzer, filepath.ToSlash(rel), d.Line})
	}
	want := []site{
		{"deferloop", "a/a.go", 5},
		{"floateq", "a/a.go", 9},
		{"floateq", "b/b.go", 7},
		{"deferloop", "c/c.go", 7},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("diagnostics:\n got %v\nwant %v", got, want)
	}
	if res.Stats.Packages != 3 || res.Stats.Suppressed != 0 {
		t.Errorf("stats = %+v, want 3 packages and 0 suppressed", res.Stats)
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
	res, err := AnalyzeModule(dir, All())
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
