package lintrules

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
	Dir        string
	ImportPath string
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	Dir        string
	ImportPath string
	Name       string
	GoFiles    []string
	Standard   bool
}

// Load resolves the patterns with `go list` and type-checks every
// non-stdlib match from source. One file set and one source importer are
// shared across the load, so dependency packages type-check once and the
// whole repo loads in a single pass — no export data, no network, no
// external modules.
func Load(patterns []string) ([]*Package, error) {
	listed, err := goList(patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	var out []*Package
	for _, lp := range listed {
		if lp.Standard || len(lp.GoFiles) == 0 {
			continue
		}
		pkg, err := typeCheckDir(fset, imp, lp.Dir, lp.ImportPath, lp.GoFiles)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

func goList(patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("lintrules: go list: %w", err)
	}
	var listed []listedPackage
	dec := json.NewDecoder(outPipe)
	for dec.More() {
		var lp listedPackage
		if err := dec.Decode(&lp); err != nil {
			// Nothing reads the rest of the output: stop and reap the
			// child instead of leaving it running. The decode error is
			// the one to report, so Kill's and Wait's are dropped.
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			return nil, fmt.Errorf("lintrules: go list output: %w", err)
		}
		listed = append(listed, lp)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("lintrules: go list %v: %w\n%s", patterns, err, stderr.String())
	}
	return listed, nil
}

func typeCheckDir(fset *token.FileSet, imp types.Importer, dir, importPath string, goFiles []string) (*Package, error) {
	files := make([]*ast.File, 0, len(goFiles))
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lintrules: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lintrules: type-check %s: %w", importPath, err)
	}
	return &Package{
		Fset:       fset,
		Files:      files,
		Pkg:        pkg,
		Info:       info,
		Dir:        dir,
		ImportPath: importPath,
	}, nil
}
