// Package loading: parse directories of Go source into Packages without
// type information.  The analyzers are syntactic by design — they match
// the conventions this repository actually uses (documented field names,
// annotated declarations) rather than resolved types, which keeps the
// whole suite free of golang.org/x/tools.
package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed directory of Go files.
type Package struct {
	// Name is the package clause name ("shell", "main").
	Name string
	// Path is the slash-separated import path relative to the module
	// root ("cmtk/internal/shell"), or the directory path when no module
	// root is known.
	Path string
	// Dir is the absolute directory.
	Dir  string
	Fset *token.FileSet
	// Files holds the parsed non-test sources, sorted by file name.
	Files []*ast.File

	allows    []allowSite
	malformed []Diagnostic
}

// LoadDir parses one directory's non-test Go files into a Package.
// Test files are left out: tests measure wall time and spawn scoped
// goroutines legitimately, and the invariants under enforcement are
// production-path ones.  modRoot and modPath anchor the import path;
// pass "" for both to fall back to the directory path.  Directories with
// no Go files return (nil, nil).
func LoadDir(dir string, modRoot, modPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasPrefix(n, ".") {
			continue
		}
		if strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	if len(names) == 0 {
		return nil, nil
	}
	sort.Strings(names)
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Dir: abs, Fset: token.NewFileSet()}
	for _, n := range names {
		f, err := parser.ParseFile(pkg.Fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", filepath.Join(dir, n), err)
		}
		if pkg.Name == "" {
			pkg.Name = f.Name.Name
		}
		if f.Name.Name != pkg.Name {
			// A second package in the same directory (external test
			// packages are already filtered); skip rather than refuse.
			continue
		}
		pkg.Files = append(pkg.Files, f)
	}
	pkg.Path = abs
	if modRoot != "" {
		if rel, err := filepath.Rel(modRoot, abs); err == nil && !strings.HasPrefix(rel, "..") {
			pkg.Path = modPath
			if rel != "." {
				pkg.Path = modPath + "/" + filepath.ToSlash(rel)
			}
		}
	}
	pkg.allows, pkg.malformed = collectAllows(pkg.Fset, pkg.Files)
	return pkg, nil
}

// LoadTree loads every package under root, skipping testdata, hidden
// directories, and vendor.
func LoadTree(root string) ([]*Package, error) {
	modRoot, modPath, err := FindModule(root)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return fs.SkipDir
		}
		pkg, err := LoadDir(path, modRoot, modPath)
		if err != nil {
			return err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pkgs, nil
}

// FindModule walks up from dir to the enclosing go.mod, returning the
// module root directory and module path.  Without one it returns dir
// itself and an empty module path.
func FindModule(dir string) (modRoot, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return d, "", nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return abs, "", nil
		}
		d = parent
	}
}
