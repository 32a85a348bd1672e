package lintrules

import (
	"go/ast"
	"go/token"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// The analyzers activate on in-source markers so the rules live next to
// the code they govern. These canonical lists pin the floor: the
// packages and files below carried the invariants when the suite landed,
// and deleting a marker from one of them is itself a diagnostic — the
// governed set can grow organically but never silently shrink.

// DeterministicPkgs are the artifact-producing packages the paper's
// methodology requires to be byte-identical per seed. Paths are relative
// to the module root.
var DeterministicPkgs = []string{
	"internal/artifact",
	"internal/campaign",
	"internal/cluster",
	"internal/errclass",
	"internal/gatesim",
	"internal/gatesim/engine",
	"internal/jobs",
	"internal/netlist",
	"internal/report",
	"internal/syndrome",
}

// InstrumentedFiles are the telemetry-instrumented files formerly
// covered by the grep lint in scripts/verify.sh, now held to the
// AST-accurate telemetry analyzer.
var InstrumentedFiles = []string{
	"cmd/faultsimd/main.go",
	"cmd/faultsimd/server.go",
	"cmd/repro/main.go",
	"internal/campaign/pool.go",
	"internal/campaign/twolevel.go",
	"internal/cluster/coordinator.go",
	"internal/cluster/metrics.go",
	"internal/cluster/worker.go",
	"internal/gatesim/gatesim.go",
	"internal/gatesim/shard.go",
	"internal/jobs/ledger.go",
	"internal/jobs/scheduler.go",
	"internal/store/store.go",
}

// HotPathFuncs are the simulation inner-loop functions held to the
// hotpath analyzer (no fmt, no local append, no locks), keyed
// "file:FuncName" relative to the module root: the golden/faulty kernel
// sweeps, the event engine's delta propagation, the sharded grading and
// replay loops, and the SIMT core's schedule -> issue -> execute path. Removing a //vetsim:hotpath marker from — or
// renaming away — any of these is a diagnostic, so the governed set can
// grow but never silently shrink.
var HotPathFuncs = []string{
	"internal/gatesim/engine/engine.go:BeginCycle",
	"internal/gatesim/engine/engine.go:Clock",
	"internal/gatesim/engine/engine.go:SetFaults",
	"internal/gatesim/engine/engine.go:markTouched",
	"internal/gatesim/engine/engine.go:seed",
	"internal/gatesim/gatesim.go:goldenPassBlock",
	"internal/gatesim/gatesim.go:markActivatedBlock",
	"internal/gatesim/pack.go:transpose64",
	"internal/gatesim/shard.go:mergeEvents",
	"internal/gatesim/shard.go:recordCycle",
	"internal/gatesim/shard.go:runBatch",
	"internal/gpu/device.go:execute",
	"internal/gpu/device.go:issue",
	"internal/gpu/device.go:schedule",
	"internal/netlist/eval.go:Eval",
}

// CheckMarkers verifies the canonical lists against the loaded packages:
// every DeterministicPkgs package must carry //vetsim:deterministic,
// every InstrumentedFiles file must carry //vetsim:instrumented, and
// every HotPathFuncs function must exist and carry //vetsim:hotpath. It
// only judges packages present in the load, so partial loads
// (single-package runs) stay quiet about the rest of the tree.
func CheckMarkers(moduleRoot string, pkgs []*Package) []Diagnostic {
	wantPkg := make(map[string]bool, len(DeterministicPkgs))
	for _, p := range DeterministicPkgs {
		wantPkg[p] = true
	}
	wantFile := make(map[string]bool, len(InstrumentedFiles))
	for _, f := range InstrumentedFiles {
		wantFile[f] = true
	}
	wantHot := make(map[string]map[string]bool)
	for _, e := range HotPathFuncs {
		file, name, ok := strings.Cut(e, ":")
		if !ok {
			continue
		}
		if wantHot[file] == nil {
			wantHot[file] = make(map[string]bool)
		}
		wantHot[file][name] = true
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		rel, err := filepath.Rel(moduleRoot, pkg.Dir)
		if err != nil {
			continue
		}
		rel = filepath.ToSlash(rel)
		dirs := scanDirectives(pkg.Fset, pkg.Files)
		if wantPkg[rel] && !hasDirectiveKind(dirs, "deterministic") {
			diags = append(diags, Diagnostic{
				Pos:     token.Position{Filename: rel},
				Rule:    "markers",
				Message: "package " + rel + " produces seed-addressed artifacts but no file carries //vetsim:deterministic",
			})
		}
		for _, f := range pkg.Files {
			filename := pkg.Fset.Position(f.Pos()).Filename
			relFile, err := filepath.Rel(moduleRoot, filename)
			if err != nil {
				continue
			}
			relFile = filepath.ToSlash(relFile)
			if wantFile[relFile] && !fileHasDirectiveKind(dirs, filename, "instrumented") {
				diags = append(diags, Diagnostic{
					Pos:     token.Position{Filename: relFile, Line: 1, Column: 1},
					Rule:    "markers",
					Message: "file " + relFile + " is telemetry-instrumented but carries no //vetsim:instrumented marker",
				})
			}
			if names := wantHot[relFile]; names != nil {
				seen := make(map[string]bool, len(names))
				for _, decl := range f.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok || !names[fn.Name.Name] {
						continue
					}
					seen[fn.Name.Name] = true
					if !funcHasDirectiveKind(pkg.Fset, dirs, fn, "hotpath") {
						diags = append(diags, Diagnostic{
							Pos:     pkg.Fset.Position(fn.Pos()),
							Rule:    "markers",
							Message: "function " + fn.Name.Name + " in " + relFile + " is a governed hot path but carries no //vetsim:hotpath marker",
						})
					}
				}
				missing := make([]string, 0, len(names))
				for name := range names {
					if !seen[name] {
						missing = append(missing, name)
					}
				}
				sort.Strings(missing)
				for _, name := range missing {
					diags = append(diags, Diagnostic{
						Pos:     token.Position{Filename: relFile, Line: 1, Column: 1},
						Rule:    "markers",
						Message: "hot-path function " + name + " not found in " + relFile + " — update lintrules.HotPathFuncs if it moved",
					})
				}
			}
		}
	}
	return diags
}

func hasDirectiveKind(dirs map[string]map[int][]Directive, kind string) bool {
	for _, lines := range dirs {
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

// funcHasDirectiveKind is Pass.FuncHasDirective for the marker
// cross-check, which runs outside an analyzer pass: the function's doc
// comment or the line directly above its declaration must carry the kind.
func funcHasDirectiveKind(fset *token.FileSet, dirs map[string]map[int][]Directive, fn *ast.FuncDecl, kind string) bool {
	if fn.Doc != nil {
		for _, c := range fn.Doc.List {
			if d, ok := parseDirective(c.Text); ok && d.Kind == kind {
				return true
			}
		}
	}
	pos := fset.Position(fn.Pos())
	for _, d := range dirs[pos.Filename][pos.Line-1] {
		if d.Kind == kind {
			return true
		}
	}
	return false
}

func fileHasDirectiveKind(dirs map[string]map[int][]Directive, filename, kind string) bool {
	for _, ds := range dirs[filename] {
		for _, d := range ds {
			if d.Kind == kind {
				return true
			}
		}
	}
	return false
}

// ModuleRoot returns the directory containing go.mod for the current
// working tree, via `go list -m`.
func ModuleRoot() (string, error) {
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(string(out)), nil
}
