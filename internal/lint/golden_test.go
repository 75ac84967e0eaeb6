package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// Golden-fixture tests: each analyzer runs over a fixture package in
// testdata/<name>/ whose flagged lines carry a // want "substr" comment.
// The test fails both ways — a want line with no matching diagnostic is
// a false negative, a diagnostic with no want line a false positive —
// so every fixture exercises true positives and true negatives at once.

var (
	goldenOnce sync.Once
	goldenMod  *Module
	goldenErr  error
)

// loadGoldenModule loads (and caches) the real module: fixtures that
// need type-checking resolve module-internal imports against it.
func loadGoldenModule(t *testing.T) *Module {
	t.Helper()
	goldenOnce.Do(func() {
		goldenMod, goldenErr = LoadModule(".")
	})
	if goldenErr != nil {
		t.Fatalf("LoadModule: %v", goldenErr)
	}
	return goldenMod
}

// goldenCases pins, per analyzer, the fixture package's import path —
// chosen to land inside the analyzer's scope rules — and whether the
// fixture can be type-checked (stdlibonly's deliberately-unresolvable
// imports force a parse-only package).
var goldenCases = []struct {
	analyzer  *Analyzer
	path      string
	typecheck bool
}{
	{Rawdata, "github.com/repro/snntest/lintfixture/rawdatafix", true},
	{Panicfree, "github.com/repro/snntest/internal/lintfixture/panicfreefix", true},
	{Determinism, "github.com/repro/snntest/lintfixture/determinismfix", true},
	{Goroutinejoin, "github.com/repro/snntest/lintfixture/goroutinejoinfix", true},
	{ErrcheckLite, "github.com/repro/snntest/cmd/lintfixture", true},
	{StdlibOnly, "github.com/repro/snntest/lintfixture/stdlibonlyfix", false},
	{Spanend, "github.com/repro/snntest/lintfixture/spanendfix", true},
	{Metricname, "github.com/repro/snntest/lintfixture/metricnamefix", true},
	{Hotpathalloc, "github.com/repro/snntest/lintfixture/hotpathallocfix", true},
	{Atomicmix, "github.com/repro/snntest/lintfixture/atomicmixfix", true},
	{Ctxflow, "github.com/repro/snntest/lintfixture/ctxflowfix", true},
	{Floateq, "github.com/repro/snntest/lintfixture/floateqfix", true},
	{Deferloop, "github.com/repro/snntest/lintfixture/deferloopfix", true},
}

var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

// wantKey identifies one expected-diagnostic site.
type wantKey struct {
	file string
	line int
}

// parseWants scans fixture sources for // want "substr" comments.
func parseWants(t *testing.T, filenames []string) map[wantKey][]string {
	t.Helper()
	wants := make(map[wantKey][]string)
	for _, fn := range filenames {
		data, err := os.ReadFile(fn)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				k := wantKey{fn, i + 1}
				wants[k] = append(wants[k], m[1])
			}
		}
	}
	return wants
}

func TestGoldenFixtures(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.analyzer.Name, func(t *testing.T) {
			mod := loadGoldenModule(t)
			dir := filepath.Join("testdata", tc.analyzer.Name)
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			var files []string
			for _, e := range entries {
				if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
					files = append(files, filepath.Join(dir, e.Name()))
				}
			}
			if len(files) == 0 {
				t.Fatalf("no fixture files in %s", dir)
			}

			pkg, err := mod.CheckPackage(tc.path, files, tc.typecheck)
			if err != nil {
				t.Fatalf("CheckPackage: %v", err)
			}
			diags := RunPackage(mod, pkg, tc.analyzer)

			wants := parseWants(t, files)
			for _, d := range diags {
				k := wantKey{d.File, d.Line}
				idx := -1
				for i, w := range wants[k] {
					if strings.Contains(d.Message, w) {
						idx = i
						break
					}
				}
				if idx < 0 {
					t.Errorf("unexpected diagnostic (false positive): %s", d)
					continue
				}
				wants[k] = append(wants[k][:idx], wants[k][idx+1:]...)
				if len(wants[k]) == 0 {
					delete(wants, k)
				}
			}
			for k, subs := range wants {
				for _, w := range subs {
					t.Errorf("missing diagnostic (false negative) at %s:%d: want message containing %q", k.file, k.line, w)
				}
			}
		})
	}
}

// TestGoldenFixturesCoverEveryAnalyzer keeps the fixture table in lock
// step with the registered suite: adding an analyzer without a golden
// fixture is itself a test failure.
func TestGoldenFixturesCoverEveryAnalyzer(t *testing.T) {
	covered := make(map[string]bool)
	for _, tc := range goldenCases {
		covered[tc.analyzer.Name] = true
	}
	for _, a := range All() {
		if !covered[a.Name] {
			t.Errorf("analyzer %s has no golden fixture", a.Name)
		}
	}
}

// TestGoModPolicy exercises the module-level half of stdlibonly: a
// require directive is a diagnostic, and the real go.mod has none.
func TestGoModPolicy(t *testing.T) {
	if diags := goModDiagnostics(&Module{Dir: "x", GoMod: "module m\n\ngo 1.22\n"}); len(diags) != 0 {
		t.Errorf("clean go.mod produced diagnostics: %v", diags)
	}
	bad := "module m\n\nrequire example.com/dep v1.0.0\n\nrequire (\n\texample.com/other v0.2.0\n)\n"
	diags := goModDiagnostics(&Module{Dir: "x", GoMod: bad})
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics for two requires: %v", len(diags), diags)
	}
	for _, d := range diags {
		if !strings.Contains(d.Message, "stdlib-only by policy") {
			t.Errorf("unexpected message: %s", d.Message)
		}
	}
	mod := loadGoldenModule(t)
	if diags := goModDiagnostics(mod); len(diags) != 0 {
		t.Errorf("repo go.mod violates the stdlib-only policy: %v", diags)
	}
}

// TestRunModuleClean is the self-gate: the full suite over the real
// module must report zero findings, mirroring verify.sh.
func TestRunModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("module-wide lint run is slow")
	}
	mod := loadGoldenModule(t)
	for _, d := range Run(mod, All()).Diagnostics {
		t.Error(fmt.Sprintf("unexpected finding: %s", d))
	}
}
