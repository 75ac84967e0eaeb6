// Package lint is a small, dependency-free static-analysis framework
// built on the standard library's go/parser, go/ast and go/types, plus
// the repo-specific analyzers that guard this reproduction's invariants:
//
//   - rawdata: arithmetic indexing into raw tensor Data() slices must
//     stay inside internal/tensor (shape-safety boundary),
//   - panicfree: library packages return errors; naked panics are only
//     allowed inside named invariant-check helpers,
//   - determinism: no global math/rand state, no map-iteration-order
//     leaking into numeric results,
//   - goroutinejoin: every go statement needs a visible join,
//   - errchecklite: cmd/ and internal/experiments must not discard
//     error returns,
//   - stdlibonly: imports stay standard-library or module-internal,
//   - spanend: every obs.Start span is ended or returned in its
//     enclosing function (leaked spans corrupt trace trees),
//   - metricname: obs metric registrations use constant snake_case
//     subsystem_noun_unit names with the kind's unit suffix, so every
//     counter and gauge name is self-describing,
//   - hotpathalloc: //snn:hotpath functions contain no heap
//     allocations, directly or one module-internal call deep,
//   - atomicmix: a variable accessed via sync/atomic is never read or
//     written plainly elsewhere in its package,
//   - ctxflow: a ctx-receiving function threads its context into
//     module-internal callees instead of minting Background/TODO,
//   - floateq: no ==/!= on float operands outside internal/tensor's
//     audited equality helpers,
//   - deferloop: no defer statements inside for/range loops.
//
// The cmd/snnlint CLI drives these over the whole module through one
// driver (AnalyzeModule): LoadModule parses every package once and
// type-checks the packages in dependency order, then Run analyzes them
// in that order, filters the findings through //lint:ignore suppression
// directives (with an unused-directive check) and sorts them. verify.sh
// wires the suite into the tier-1+ gate.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Fset   *token.FileSet
	Path   string // package import path
	Files  []*ast.File
	Pkg    *types.Package
	Info   *types.Info
	Module *Module

	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named check over a package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Rawdata, Panicfree, Determinism, Goroutinejoin, ErrcheckLite, StdlibOnly, Spanend, Metricname,
		Hotpathalloc, Atomicmix, Ctxflow, Floateq, Deferloop,
	}
}

// diagLess is the canonical diagnostic order: file, line, column,
// analyzer, message — a total order, so sorted output is deterministic
// even when two analyzers flag the same position.
func diagLess(a, b Diagnostic) bool {
	if a.File != b.File {
		return a.File < b.File
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	if a.Col != b.Col {
		return a.Col < b.Col
	}
	if a.Analyzer != b.Analyzer {
		return a.Analyzer < b.Analyzer
	}
	return a.Message < b.Message
}

// RunPackage applies one analyzer to a single package: Run calls it per
// analyzer, and the golden tests call it directly.
func RunPackage(mod *Module, pkg *Package, a *Analyzer) []Diagnostic {
	var diags []Diagnostic
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
	return diags
}
