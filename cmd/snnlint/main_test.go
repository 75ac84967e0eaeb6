package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestRunList checks the -list mode names every registered analyzer.
func TestRunList(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	n, err := run([]string{"-list"}, wd, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if n != 0 {
		t.Fatalf("list mode reported %d findings, want 0", n)
	}
	out := stdout.String()
	for _, want := range []string{"determinism", "errchecklite", "goroutinejoin", "panicfree", "rawdata", "stdlibonly"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output missing analyzer %q; got:\n%s", want, out)
		}
	}
}

// TestRunModuleCleanJSON lints the enclosing module (the lint walk finds
// the module root from any subdirectory) and requires zero findings, in
// valid JSON form.
func TestRunModuleCleanJSON(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	n, err := run([]string{"-json"}, wd, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var diags []map[string]any
	if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, stdout.String())
	}
	if n != 0 || len(diags) != 0 {
		t.Fatalf("module has %d lint finding(s):\n%s", n, stdout.String())
	}
}

func TestRunBadFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if _, err := run([]string{"-no-such-flag"}, ".", &stdout, &stderr); err == nil {
		t.Fatal("want flag-parse error, got nil")
	}
}

// writeTempModule lays out a tiny single-package module for exercising
// the findings and load-error exit paths without touching the real repo.
func writeTempModule(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(dir+"/go.mod", []byte("module example.com/tmp\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir+"/tmp.go", []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestRunFindingsCount drives the findings exit path (main maps any
// positive count to exit code 1): a defer inside a loop is one finding,
// and the summary line carries the package/suppressed/finding counts.
func TestRunFindingsCount(t *testing.T) {
	dir := writeTempModule(t, `package tmp

func leak(fns []func()) {
	for _, f := range fns {
		defer f()
	}
}
`)
	var stdout, stderr bytes.Buffer
	n, err := run(nil, dir, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if n != 1 {
		t.Fatalf("got %d findings, want 1; stdout:\n%s", n, stdout.String())
	}
	if !strings.Contains(stdout.String(), "[deferloop]") {
		t.Errorf("missing deferloop diagnostic:\n%s", stdout.String())
	}
	sum := stderr.String()
	for _, want := range []string{"snnlint: 1 package(s): 0 suppressed, 1 finding(s) in "} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary line missing %q:\n%s", want, sum)
		}
	}
}

// TestRunSuppressedFinding checks that a //lint:ignore directive drops
// the finding and is counted in the summary.
func TestRunSuppressedFinding(t *testing.T) {
	dir := writeTempModule(t, `package tmp

func leak(fns []func()) {
	for _, f := range fns {
		defer f() //lint:ignore deferloop bounded fan-in, joined by the caller
	}
}
`)
	var stdout, stderr bytes.Buffer
	n, err := run(nil, dir, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if n != 0 {
		t.Fatalf("got %d findings, want 0 (suppressed); stdout:\n%s", n, stdout.String())
	}
	if !strings.Contains(stderr.String(), "1 suppressed") {
		t.Errorf("summary line missing suppressed count:\n%s", stderr.String())
	}
}

// TestRunLoadErrorExitPath: a type-check failure must surface as an
// error (main maps it to exit code 2), not as findings.
func TestRunLoadErrorExitPath(t *testing.T) {
	dir := writeTempModule(t, "package tmp\n\nfunc broken() { undefinedSymbol() }\n")
	var stdout, stderr bytes.Buffer
	if _, err := run(nil, dir, &stdout, &stderr); err == nil {
		t.Fatal("want type-check error, got nil")
	}
}
