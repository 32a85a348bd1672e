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
	"sort"
	"strings"
	"testing"
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
// internal/ must be a top-level identifier or method of that package.
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
					}
				}
			}
		}
	}
}

// TestDocsRunLiveCommands fails when a document tells the reader to
// `go run ./<path>` for a directory that no longer exists.
func TestDocsRunLiveCommands(t *testing.T) {
	goRunRE := regexp.MustCompile(`go run \./([A-Za-z0-9_./-]+)`)
	for _, doc := range docFiles {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			for _, m := range goRunRE.FindAllStringSubmatch(line, -1) {
				dir := strings.TrimRight(m[1], "./") // "./..." or a sentence's full stop
				if st, err := os.Stat(filepath.FromSlash(dir)); err != nil || !st.IsDir() {
					t.Errorf("%s:%d: `go run ./%s` names no directory", doc, i+1, m[1])
				}
			}
		}
	}
}

// governedRows maps each row of DESIGN.md's analyzer catalog that lists a
// governed set to the //vetsim: marker that puts code in that set.
var governedRows = map[string]string{
	"determinism": "deterministic", // package paths: `internal/cluster`
	"telemetry":   "instrumented",  // file paths: `internal/store/store.go`
	"hotpath":     "hotpath",       // functions: `gpu.execute`
}

// markedSets parses every non-test .go file of the module (comments only
// matter; nothing is type-checked) and returns, per marker kind, the set
// its markers state: package directories for deterministic, file paths
// for instrumented, and pkg.Func for hotpath, whose marker sits in the
// function's doc comment or on the line directly above it.
func markedSets(t *testing.T) map[string]map[string]bool {
	t.Helper()
	sets := map[string]map[string]bool{}
	for _, kind := range governedRows {
		sets[kind] = map[string]bool{}
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if file != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, file, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		file = filepath.ToSlash(file)
		hotLines := map[int]bool{} // lines holding a //vetsim:hotpath marker
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				body, ok := strings.CutPrefix(c.Text, "//vetsim:")
				if !ok {
					continue
				}
				switch kind, _, _ := strings.Cut(body, " "); kind {
				case "deterministic":
					sets[kind][path.Dir(file)] = true
				case "instrumented":
					sets[kind][file] = true
				case "hotpath":
					hotLines[fset.Position(c.Pos()).Line] = true
				}
			}
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			lines := []int{fset.Position(fn.Pos()).Line - 1}
			if fn.Doc != nil {
				for _, c := range fn.Doc.List {
					lines = append(lines, fset.Position(c.Pos()).Line)
				}
			}
			for _, l := range lines {
				if hotLines[l] {
					sets["hotpath"][f.Name.Name+"."+fn.Name.Name] = true
					delete(hotLines, l)
				}
			}
		}
		for l := range hotLines {
			t.Errorf("%s:%d: //vetsim:hotpath marks no function", file, l)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sets
}

// catalogSets returns, per marker kind, the backticked entries of the
// scope cell of the matching row in DESIGN.md's analyzer catalog, apart
// from the marker itself.
func catalogSets(t *testing.T) map[string]map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(raw), "\n## Static analysis & invariants")
	section, _, _ = strings.Cut(section, "\n## ")
	sets := map[string]map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|") // "", rule, scope, what it proves, ""
		if len(cells) < 4 {
			continue
		}
		kind, ok := governedRows[strings.Trim(strings.TrimSpace(cells[1]), "`")]
		if !ok {
			continue
		}
		if sets[kind] != nil {
			t.Fatalf("DESIGN.md's analyzer catalog has two rows for //vetsim:%s", kind)
		}
		sets[kind] = map[string]bool{}
		for _, m := range codeSpanRE.FindAllStringSubmatch(cells[2], -1) {
			if !strings.HasPrefix(m[1], "//vetsim:") {
				sets[kind][m[1]] = true
			}
		}
	}
	return sets
}

// TestGovernedSetsMatchDesign holds DESIGN.md's analyzer catalog equal to
// the //vetsim: markers in the code. The markers decide what the
// analyzers govern; the catalog is the checked-in floor, so removing a
// marker (a governed set shrinking silently) fails here, and so does a
// new marker the catalog does not list.
func TestGovernedSetsMatchDesign(t *testing.T) {
	marked, listed := markedSets(t), catalogSets(t)
	for _, kind := range []string{"deterministic", "instrumented", "hotpath"} {
		if listed[kind] == nil {
			t.Errorf("DESIGN.md's analyzer catalog has no row for //vetsim:%s", kind)
			continue
		}
		for _, e := range sortedKeys(listed[kind]) {
			if !marked[kind][e] {
				t.Errorf("DESIGN.md's catalog lists `%s`, but no //vetsim:%s marker governs it", e, kind)
			}
		}
		for _, e := range sortedKeys(marked[kind]) {
			if !listed[kind][e] {
				t.Errorf("`%s` carries //vetsim:%s, but DESIGN.md's catalog does not list it", e, kind)
			}
		}
	}
}

func sortedKeys(set map[string]bool) []string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
