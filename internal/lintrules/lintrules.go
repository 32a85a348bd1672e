// Package lintrules encodes this repository's invariants as static
// analyzers: determinism of artifact-producing packages, completeness of
// content-addressed cache keys, telemetry discipline in instrumented
// files, and allocation/lock hygiene on hot paths. The analyzers mirror
// the golang.org/x/tools/go/analysis shape (Analyzer, Pass, Diagnostic)
// but are built purely on the standard library's go/ast + go/types so
// the suite runs with zero external dependencies — `go run ./cmd/vetsim
// ./...` is the whole toolchain.
//
// Activation is marker-driven, so the analyzers and the code they govern
// stay in sync without a config file:
//
//	//vetsim:deterministic            package produces seed-addressed artifacts
//	//vetsim:instrumented             file must time phases via telemetry.Timer
//	//vetsim:hotpath                  function is a simulation inner loop
//	//vetsim:cachekey-surface         function participates in cache-key derivation
//	//vetsim:ignore <rule> <reason>   suppress <rule> on this (or the next) line
//
// The markers are the only place the code states which packages, files
// and functions are governed. DESIGN.md's analyzer catalog lists the same
// sets, and TestGovernedSetsMatchDesign (docs_test.go) holds the two
// equal, so a governed set cannot shrink, or grow, without the catalog
// changing with it.
//
// Suppressions require a reason; a bare //vetsim:ignore is itself a
// diagnostic. See DESIGN.md "Static analysis & invariants".
package lintrules

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant checker. Run inspects a type-checked
// package through the Pass and reports diagnostics.
type Analyzer struct {
	Name string // rule name used in output and //vetsim:ignore directives
	Doc  string // one-line description
	Run  func(*Pass) error
}

// Diagnostic is one finding, positioned in the analyzed package.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Pass carries one type-checked package through an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Dir      string // package directory on disk
	PkgPath  string // import path ("cachekey" etc. for testdata fixtures)

	directives map[string]map[int][]Directive // filename -> line -> directives
	diags      *[]Diagnostic
}

// Directive is one parsed //vetsim: comment.
type Directive struct {
	Kind   string // "ignore", "hotpath", "instrumented", "deterministic", "cachekey-surface"
	Rule   string // for ignore: the suppressed rule name ("all" wildcard allowed)
	Reason string // for ignore: mandatory justification
	Pos    token.Position
}

// Reportf records a diagnostic unless an ignore directive for this rule
// sits on the same line or the line directly above it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.suppressed(position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     position,
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

func (p *Pass) suppressed(pos token.Position) bool {
	lines := p.directives[pos.Filename]
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		for _, d := range lines[line] {
			if d.Kind == "ignore" && (d.Rule == p.Analyzer.Name || d.Rule == "all") && d.Reason != "" {
				return true
			}
		}
	}
	return false
}

// HasPackageDirective reports whether any file of the package carries a
// directive of the given kind (e.g. "deterministic").
func (p *Pass) HasPackageDirective(kind string) bool {
	for _, lines := range p.directives {
		for _, ds := range lines {
			for _, d := range ds {
				if d.Kind == kind {
					return true
				}
			}
		}
	}
	return false
}

// FileHasDirective reports whether the file containing pos carries a
// directive of the given kind anywhere.
func (p *Pass) FileHasDirective(pos token.Pos, kind string) bool {
	filename := p.Fset.Position(pos).Filename
	for _, ds := range p.directives[filename] {
		for _, d := range ds {
			if d.Kind == kind {
				return true
			}
		}
	}
	return false
}

// FuncHasDirective reports whether fn's doc comment (or the line above
// its declaration) carries the directive kind — the //vetsim:hotpath and
// //vetsim:cachekey-surface annotation points.
func (p *Pass) FuncHasDirective(fn *ast.FuncDecl, kind string) bool {
	if fn.Doc != nil {
		for _, c := range fn.Doc.List {
			if d, ok := parseDirective(c.Text); ok && d.Kind == kind {
				return true
			}
		}
	}
	pos := p.Fset.Position(fn.Pos())
	for _, d := range p.directives[pos.Filename][pos.Line-1] {
		if d.Kind == kind {
			return true
		}
	}
	return false
}

// parseDirective parses one comment's text as a vetsim directive. Only
// the space-free `//vetsim:` form counts, matching Go's //go: directive
// convention; a spaced "// vetsim:" is ordinary prose.
func parseDirective(text string) (Directive, bool) {
	body, ok := strings.CutPrefix(text, "//vetsim:")
	if !ok {
		return Directive{}, false
	}
	fields := strings.Fields(body)
	if len(fields) == 0 {
		return Directive{}, false
	}
	d := Directive{Kind: fields[0]}
	if d.Kind == "ignore" {
		if len(fields) >= 2 {
			d.Rule = fields[1]
		}
		if len(fields) >= 3 {
			d.Reason = strings.Join(fields[2:], " ")
		}
	}
	return d, true
}

// scanDirectives indexes every vetsim directive of a parsed file set.
func scanDirectives(fset *token.FileSet, files []*ast.File) map[string]map[int][]Directive {
	out := make(map[string]map[int][]Directive)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				d.Pos = pos
				lines := out[pos.Filename]
				if lines == nil {
					lines = make(map[int][]Directive)
					out[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], d)
			}
		}
	}
	return out
}

// checkDirectives reports malformed suppressions: an //vetsim:ignore
// without both a rule and a reason silences nothing and is flagged so it
// cannot rot in place.
func checkDirectives(p *Pass) {
	for _, lines := range p.directives {
		for _, ds := range lines {
			for _, d := range ds {
				if d.Kind == "ignore" && (d.Rule == "" || d.Reason == "") {
					*p.diags = append(*p.diags, Diagnostic{
						Pos:     d.Pos,
						Rule:    "directive",
						Message: "malformed //vetsim:ignore: need `//vetsim:ignore <rule> <reason>`",
					})
				}
			}
		}
	}
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, CacheKey, Telemetry, HotPath}
}

// RunAnalyzers applies every analyzer to every package and returns the
// combined findings sorted by position. Malformed directives are checked
// once per package.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		dirs := scanDirectives(pkg.Fset, pkg.Files)
		for i, a := range analyzers {
			pass := &Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Pkg,
				Info:       pkg.Info,
				Dir:        pkg.Dir,
				PkgPath:    pkg.ImportPath,
				directives: dirs,
				diags:      &diags,
			}
			if i == 0 {
				checkDirectives(pass)
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lintrules: %s on %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
	}
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
		return a.Rule < b.Rule
	})
	return diags, nil
}
