package lintrules

import (
	"fmt"
	"go/importer"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// runAnalyzerTest is the golden-diagnostic harness: it loads the fixture
// package under testdata/src/<name>, runs one analyzer, and compares the
// findings against `// want "regexp"` comments in the fixture — every
// want must be matched by a diagnostic on its line, and every diagnostic
// must be claimed by a want. Suppressed findings never surface, so a
// fixture line carrying //vetsim:ignore and no want asserts the
// suppression machinery too.
func runAnalyzerTest(t *testing.T, a *Analyzer, fixture string) []Diagnostic {
	t.Helper()
	dir := filepath.Join("testdata", "src", fixture)
	pkg, err := loadDir(dir)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:   a,
		Fset:       pkg.Fset,
		Files:      pkg.Files,
		Pkg:        pkg.Pkg,
		Info:       pkg.Info,
		Dir:        pkg.Dir,
		PkgPath:    pkg.ImportPath,
		directives: scanDirectives(pkg.Fset, pkg.Files),
		diags:      &diags,
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("run %s on %s: %v", a.Name, fixture, err)
	}

	wants := parseWants(t, pkg)
	matched := make(map[*wantExpect]bool)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)
		claimed := false
		for _, w := range wants[key] {
			if !matched[w] && w.re.MatchString(d.Message) {
				matched[w] = true
				claimed = true
				break
			}
		}
		if !claimed {
			t.Errorf("unexpected diagnostic at %s: %s", key, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !matched[w] {
				t.Errorf("no diagnostic at %s matching %q", key, w.re)
			}
		}
	}
	return diags
}

type wantExpect struct{ re *regexp.Regexp }

var wantRE = regexp.MustCompile(`// want (.*)$`)

// parseWants extracts the `// want "rx" ["rx" ...]` expectations of every
// fixture file, keyed by "file.go:line".
func parseWants(t *testing.T, pkg *Package) map[string][]*wantExpect {
	t.Helper()
	out := make(map[string][]*wantExpect)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
				for _, quoted := range splitQuoted(m[1]) {
					pat, err := strconv.Unquote(quoted)
					if err != nil {
						t.Fatalf("%s: bad want pattern %s: %v", key, quoted, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", key, pat, err)
					}
					out[key] = append(out[key], &wantExpect{re: re})
				}
			}
		}
	}
	return out
}

// splitQuoted returns the double-quoted tokens of s in order.
func splitQuoted(s string) []string {
	var out []string
	for {
		i := strings.IndexByte(s, '"')
		if i < 0 {
			return out
		}
		j := i + 1
		for j < len(s) {
			if s[j] == '\\' {
				j += 2
				continue
			}
			if s[j] == '"' {
				break
			}
			j++
		}
		if j >= len(s) {
			return out
		}
		out = append(out, s[i:j+1])
		s = s[j+1:]
	}
}

// loadDir parses and type-checks every .go file directly under dir as a
// single package — the analysistest entry point for testdata fixtures,
// which `go list` cannot see.
func loadDir(dir string) (*Package, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	if len(matches) == 0 {
		return nil, fmt.Errorf("lintrules: no .go files under %s", dir)
	}
	sort.Strings(matches)
	names := make([]string, len(matches))
	for i, m := range matches {
		names[i] = filepath.Base(m)
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	return typeCheckDir(fset, imp, dir, filepath.Base(dir), names)
}
