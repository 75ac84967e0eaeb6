package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"regexp"
	"strings"
)

// Metricname enforces the repo's metric naming convention at every obs
// registration site (NewCounter, NewGauge). Names must be
// self-describing: snake_case `subsystem_noun_unit` with at least two
// segments (e.g. snn_layer_steps_total). Unit suffixes are tied to the
// metric kind — counters end in _total, and gauges carry neither _total
// nor _seconds (a gauge named like a counter or a duration lies about
// its semantics). The name must also be a compile-time constant, so
// dynamic names cannot bypass this check.
var Metricname = &Analyzer{
	Name: "metricname",
	Doc:  "enforces the subsystem_noun_unit naming convention at obs metric registration sites",
	Run:  runMetricname,
}

// metricRegisterFuncs maps each registration entry point to its metric
// kind.
var metricRegisterFuncs = map[string]string{
	"github.com/repro/snntest/internal/obs.NewCounter": "counter",
	"github.com/repro/snntest/internal/obs.NewGauge":   "gauge",
}

// metricNameRe is the shape rule: lowercase snake_case, two or more
// segments, each starting alphanumeric.
var metricNameRe = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)+$`)

func runMetricname(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			var kind string
			for fullName, k := range metricRegisterFuncs {
				if isCallTo(p, call, fullName) {
					kind = k
					break
				}
			}
			if kind == "" {
				return true
			}
			tv, ok := p.Info.Types[call.Args[0]]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				p.Reportf(call.Args[0].Pos(),
					"metric name must be a compile-time string constant, not a computed value")
				return true
			}
			checkMetricName(p, call.Args[0].Pos(), kind, constant.StringVal(tv.Value))
			return true
		})
	}
}

// checkMetricName applies the shape and unit-suffix rules to one
// registered name.
func checkMetricName(p *Pass, pos token.Pos, kind, name string) {
	if !metricNameRe.MatchString(name) {
		p.Reportf(pos, "metric name %q is not subsystem_noun_unit snake_case (want %s)", name, metricNameRe)
		return
	}
	switch kind {
	case "counter":
		if !strings.HasSuffix(name, "_total") {
			p.Reportf(pos, "counter name %q must end in _total", name)
		}
	case "gauge":
		if strings.HasSuffix(name, "_total") || strings.HasSuffix(name, "_seconds") {
			p.Reportf(pos, "gauge name %q must not use the counter/histogram unit suffixes _total and _seconds", name)
		}
	}
}
