// Command snnlint runs the repo-specific static-analysis suite over the
// enclosing Go module and reports diagnostics with file:line:col
// positions. It exits 0 when clean, 1 on findings, 2 on load failure.
//
// Usage:
//
//	go run ./cmd/snnlint ./...
//	go run ./cmd/snnlint -json ./...
//	go run ./cmd/snnlint -list
//
// The module is always analyzed as a whole (package patterns are
// accepted for command-line symmetry with go vet but do not narrow the
// walk): every package is parsed once and type-checked in dependency
// order, then analyzed in that order. See internal/lint for the
// analyzers and README.md for how to add one. snnlint shares the
// repo-wide observability flags (-v, -quiet, -trace, -serve,
// -profile-dir) with the other cmds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/repro/snntest/internal/lint"
	"github.com/repro/snntest/internal/obs/telemetry"
)

func main() {
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "snnlint:", err)
		os.Exit(2)
	}
	findings, err := run(os.Args[1:], wd, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "snnlint:", err)
		os.Exit(2)
	}
	if findings > 0 {
		os.Exit(1)
	}
}

// run executes the lint walk rooted at dir and returns the finding count;
// a non-nil error signals a load/encode failure (exit code 2).
func run(args []string, dir string, stdout, stderr io.Writer) (findings int, err error) {
	fs := flag.NewFlagSet("snnlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var ocli telemetry.CLI
	ocli.Register(fs)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
	list := fs.Bool("list", false, "list the analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	log, stop, err := ocli.Start(stderr)
	if err != nil {
		return 0, err
	}
	defer func() {
		if serr := stop(); err == nil {
			err = serr
		}
	}()

	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0, nil
	}

	res, err := lint.AnalyzeModule(dir, lint.All())
	if err != nil {
		return 0, err
	}
	st := res.Stats
	log.Debugf("analyzed module at %s: %d packages", dir, st.Packages)

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		diags := res.Diagnostics
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			return 0, err
		}
	} else {
		for _, d := range res.Diagnostics {
			fmt.Fprintln(stdout, d)
		}
	}
	fmt.Fprintf(stderr, "snnlint: %d package(s): %d suppressed, %d finding(s) in %v\n",
		st.Packages, st.Suppressed, len(res.Diagnostics), st.Wall.Round(time.Millisecond))
	return len(res.Diagnostics), nil
}
