// Package lint is SenseDroid's project-invariant static-analysis engine.
//
// The middleware's core guarantees — deterministic parallel fan-out,
// simulated time and transport instead of wall-clock and RF, and the
// "permanently instrumented, zero-cost when disabled" observability
// contract — are architectural invariants that ordinary tests cannot
// economically pin: they are properties of *all* code, including code
// that has not been written yet. This package machine-checks them.
//
// The engine is stdlib-only (go/ast + go/parser + go/types; no
// golang.org/x/tools), matching the module's zero-dependency policy. It
// loads packages itself (see Loader), type-checks them with a recursive
// module-local importer, runs a set of Analyzers over each package, and
// reports Diagnostics in "path:line:col" form, sorted by position so the
// output is stable. A finding can be suppressed — with an audit trail —
// by a "//lint:ignore <check> <reason>" comment on the offending line or
// the line immediately above it (see ignore.go).
//
// cmd/sdlint is the CLI front end; scripts/check.sh gates the build on a
// clean run.
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"sort"
	"time"
)

// Diagnostic is one finding: a position, the check that produced it, and
// a human-readable message.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

// String formats the diagnostic in the conventional compiler style:
// path:line:col: message (check).
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Check)
}

// Analyzer is one named invariant check. Run inspects a type-checked
// package through the Pass and reports findings via Pass.Reportf.
type Analyzer struct {
	Name string // short identifier used in output and //lint:ignore
	Doc  string // one-line description of the guarded invariant
	Run  func(*Pass)
}

// Pass hands one package to one analyzer and collects its findings.
type Pass struct {
	Pkg      *Package
	Prog     *Program
	analyzer *Analyzer
	diags    *[]Diagnostic
}

// Program is the whole loaded package set, shared across passes so the
// interprocedural analyzers build their call graph once per run instead
// of once per package. Analyzers that consume it must still report only
// diagnostics positioned inside their pass's package — that keeps
// findings deduplicated and //lint:ignore suppression working (ignore
// directives are collected per package).
type Program struct {
	Pkgs []*Package

	cg    *CallGraph
	locks *lockAnalysis
}

// CallGraph returns the memoized module-local call graph.
func (p *Program) CallGraph() *CallGraph {
	if p.cg == nil {
		p.cg = BuildCallGraph(p.Pkgs)
	}
	return p.cg
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Pkg.Fset.Position(pos),
		Check:   p.analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Result is the outcome of a lint run.
type Result struct {
	Diagnostics []Diagnostic     // post-suppression, sorted by position
	Packages    int              // packages analyzed (cmd/sdlint exits 1 when it is zero)
	Suppressed  int              // diagnostics silenced by //lint:ignore directives
	Timings     []AnalyzerTiming // wall time per analyzer, sorted by name
}

// AnalyzerTiming is the wall time one analyzer spent across all
// packages of the run. The whole-program analyses are memoized on the
// Program, so the first analyzer to demand a shared structure (the call
// graph, most visibly) is billed for building it — the numbers answer
// "which analyzer should I look at when the run blows the latency
// budget", not "what is the marginal cost of re-running this one".
type AnalyzerTiming struct {
	Analyzer string  `json:"analyzer"`
	Millis   float64 `json:"ms"`
}

// Run analyzes every package with every analyzer, applies //lint:ignore
// suppression, and returns position-sorted diagnostics. Malformed ignore
// directives (missing check name or reason) are themselves reported under
// the "sdlint" check so they cannot silently rot.
func Run(pkgs []*Package, analyzers []*Analyzer) *Result {
	var diags []Diagnostic
	prog := &Program{Pkgs: pkgs}
	elapsed := make(map[string]time.Duration, len(analyzers))
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Pkg: pkg, Prog: prog, analyzer: a, diags: &diags}
			start := time.Now()
			a.Run(pass)
			elapsed[a.Name] += time.Since(start)
		}
		diags = append(diags, malformedDirectives(pkg)...)
	}
	kept, suppressed := suppress(pkgs, diags)
	SortDiagnostics(kept)
	timings := make([]AnalyzerTiming, 0, len(elapsed))
	for name, d := range elapsed {
		timings = append(timings, AnalyzerTiming{Analyzer: name, Millis: float64(d.Microseconds()) / 1000})
	}
	sort.Slice(timings, func(i, j int) bool { return timings[i].Analyzer < timings[j].Analyzer })
	return &Result{Diagnostics: kept, Packages: len(pkgs), Suppressed: suppressed, Timings: timings}
}

// SortDiagnostics orders by file, then line, then column, then check —
// a total order, so repeated runs print byte-identical output.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}

// WriteDiagnostics prints one diagnostic per line to w.
func WriteDiagnostics(w io.Writer, diags []Diagnostic) error {
	for _, d := range diags {
		if _, err := fmt.Fprintln(w, d.String()); err != nil {
			return err
		}
	}
	return nil
}

// jsonReport is the wire shape of `sdlint -json`. The field order here IS
// the output order, CI uploads it as an artifact, and TestWriteJSON pins
// the bytes — treat any change as a format-version bump.
type jsonReport struct {
	Version    int              `json:"version"`
	Packages   int              `json:"packages"`
	Analyzers  []string         `json:"analyzers"`
	Timings    []AnalyzerTiming `json:"timings"`
	Findings   []jsonDiagnostic `json:"findings"`
	Suppressed int              `json:"suppressed"`
}

type jsonDiagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

// WriteJSON emits one deterministic JSON document for the run: analyzer
// names sorted, per-analyzer timings (name-sorted; the one field whose
// values vary run to run — consumers comparing reports must normalize
// "ms"), findings in SortDiagnostics order, never null for the empty
// lists, and a version field so consumers can detect format changes.
// Version history: 1 = no timings; 2 = added "timings".
func WriteJSON(w io.Writer, res *Result, analyzers []*Analyzer) error {
	names := make([]string, len(analyzers))
	for i, a := range analyzers {
		names[i] = a.Name
	}
	sort.Strings(names)
	timings := res.Timings
	if timings == nil {
		timings = []AnalyzerTiming{}
	}
	rep := jsonReport{
		Version:    2,
		Packages:   res.Packages,
		Analyzers:  names,
		Timings:    timings,
		Findings:   make([]jsonDiagnostic, 0, len(res.Diagnostics)),
		Suppressed: res.Suppressed,
	}
	for _, d := range res.Diagnostics {
		rep.Findings = append(rep.Findings, jsonDiagnostic{
			File:    d.Pos.Filename,
			Line:    d.Pos.Line,
			Col:     d.Pos.Column,
			Check:   d.Check,
			Message: d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&rep)
}

// inspectFiles walks every file of the pass's package.
func inspectFiles(pass *Pass, fn func(ast.Node) bool) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, fn)
	}
}
