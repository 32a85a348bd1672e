package gpufaultsim

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"gpufaultsim/internal/lintrules"
)

// docFiles are the hand-written documents whose code references must
// not drift from the tree.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var (
	codeSpanRE = regexp.MustCompile("`([^`]+)`")
	// A dotted name that does not continue a path, a longer dotted name
	// or a file name: pkg.Ident with optional further .segments.
	qualifiedRE = regexp.MustCompile(`(?:^|[^A-Za-z0-9_./-])([a-z][a-z0-9]*)\.([A-Za-z_][A-Za-z0-9_]*)((?:\.[A-Za-z_][A-Za-z0-9_]*)*)`)
)

// internalIdents parses every non-test file under internal/ and returns,
// per package name, its top-level identifiers and method names.
func internalIdents(t *testing.T) map[string]map[string]bool {
	t.Helper()
	idents := map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := f.Name.Name
		if idents[pkg] == nil {
			idents[pkg] = map[string]bool{}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				idents[pkg][d.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						idents[pkg][s.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							idents[pkg][n.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return idents
}

// TestDocsNameLiveIdentifiers fails when a document names Go code that no
// longer exists: every backticked `pkg.Ident` whose pkg is a package under
// internal/ must be a top-level identifier or method of that package, and
// DESIGN.md must list every function the hotpath analyzer governs.
func TestDocsNameLiveIdentifiers(t *testing.T) {
	idents := internalIdents(t)

	// The benchmark's ledger prefixes its rows with layer names that are
	// also package names (`gatesim.wsc.campaign_s`, or its family
	// `perfi.runapp_s`); those are not Go references.
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var ledger struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &ledger); err != nil {
		t.Fatal(err)
	}
	isMetric := func(name string) bool {
		for _, m := range ledger.PerLayer {
			if m.Name == name || strings.HasPrefix(m.Name, name+".") {
				return true
			}
		}
		return false
	}

	named := map[string]bool{} // every live pkg.Ident DESIGN.md names
	for _, doc := range docFiles {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for i, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
			}
			if fenced {
				continue
			}
			for _, span := range codeSpanRE.FindAllStringSubmatch(line, -1) {
				for _, m := range qualifiedRE.FindAllStringSubmatch(span[1], -1) {
					pkg, ident, rest := m[1], m[2], m[3]
					if idents[pkg] == nil || isMetric(pkg+"."+ident+rest) {
						continue
					}
					if !idents[pkg][ident] {
						t.Errorf("%s:%d: `%s.%s` names nothing in package %s", doc, i+1, pkg, ident, pkg)
					} else if doc == "DESIGN.md" {
						named[pkg+"."+ident] = true
					}
				}
			}
		}
	}

	// HotPathFuncs entries are "dir/file.go:Func"; every governed package
	// is named after its directory.
	for _, e := range lintrules.HotPathFuncs {
		file, fn, _ := strings.Cut(e, ":")
		if q := path.Base(path.Dir(file)) + "." + fn; !named[q] {
			t.Errorf("DESIGN.md does not name the hot-path function `%s` (%s)", q, e)
		}
	}
}
