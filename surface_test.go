// Dead-surface check: every exported func, method or type declared in a
// non-test file under internal/ must be read by some non-test file, or
// carry //cmlint:allow deadsurface(reason) naming the test, experiment
// or doc that needs it.  A name only tests reach is surface nothing
// ships; it goes rather than waits for a caller.
//
// This is a whole-tree test rather than a cmlint analyzer: cmlint can
// run on a package subset, and from a subset a reader in another
// package — cmd/, examples/, or cmperf in the benchmarks/ module — is
// invisible.
package cmtk_test

import (
	"go/ast"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cmtk/internal/analysis"
)

// surfaceFacts is one package's contribution to the dead-surface check:
// every identifier it reads, by name, with declaration names left out.
type surfaceFacts map[string]bool

var deadSurface = &analysis.Analyzer{
	Name: "deadsurface",
	Doc:  "exported funcs, methods and types under internal/ need a non-test reader",
	Collect: func(p *analysis.Pass) any {
		reads := surfaceFacts{}
		for _, f := range p.Pkg.Files {
			decls := map[*ast.Ident]bool{}
			for _, d := range surfaceDecls(f) {
				decls[d.name] = true
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !decls[id] {
					reads[id.Name] = true
				}
				return true
			})
		}
		return reads
	},
	Run: func(p *analysis.Pass) error {
		rel, err := filepath.Rel(p.ModRoot, p.Pkg.Dir)
		if err != nil || !strings.HasPrefix(filepath.ToSlash(rel)+"/", "internal/") {
			return err
		}
		for _, f := range p.Pkg.Files {
			for _, d := range surfaceDecls(f) {
				if !d.name.IsExported() || readAnywhere(p.Facts, d.name.Name) {
					continue
				}
				p.Reportf(d.name.Pos(), "%s.%s%s has no non-test reader; delete it or annotate //cmlint:allow deadsurface(who needs it)",
					p.Pkg.Name, d.recv, d.name.Name)
			}
		}
		return nil
	},
}

// surfaceDecl is one top-level func, method or type declaration.
type surfaceDecl struct {
	name *ast.Ident
	recv string // "Type." for a method, "" otherwise
}

// surfaceDecls returns every func, method and type a file declares at
// top level.
func surfaceDecls(f *ast.File) []surfaceDecl {
	var out []surfaceDecl
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			sd := surfaceDecl{name: d.Name}
			if d.Recv != nil && len(d.Recv.List) == 1 {
				sd.recv = analysis.SelectorPath(d.Recv.List[0].Type) + "."
			}
			out = append(out, sd)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				if ts, ok := s.(*ast.TypeSpec); ok {
					out = append(out, surfaceDecl{name: ts.Name})
				}
			}
		}
	}
	return out
}

func readAnywhere(facts []any, name string) bool {
	for _, f := range facts {
		if f.(surfaceFacts)[name] {
			return true
		}
	}
	return false
}

// deadSurfaceFindings runs the check over every non-test file under
// root, nested modules included.
func deadSurfaceFindings(t *testing.T, root string) []analysis.Diagnostic {
	t.Helper()
	pkgs, err := analysis.LoadTree(root, analysis.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	modRoot, _, err := analysis.FindModule(root)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(pkgs, []*analysis.Analyzer{deadSurface}, modRoot)
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

// TestDeadSurface holds the repository to the rule.
func TestDeadSurface(t *testing.T) {
	for _, d := range deadSurfaceFindings(t, ".") {
		t.Error(d)
	}
}

// TestDeadSurfaceSynthetic checks the check itself on a small tree: one
// unread name is flagged, and a read name and a suppressed one are not.
func TestDeadSurfaceSynthetic(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module synth\n\ngo 1.22\n",
		"internal/p/p.go": `package p

type Clean struct{}

func Flagged() {}

//cmlint:allow deadsurface(fixture: a reasoned exception)
func (Clean) Suppressed() {}

func (Clean) unexported() {}

func (*Clean) Unread() {}
`,
		"internal/p/p_test.go": "package p\n\nfunc init() { Flagged(); new(Clean).Unread() }\n",
		"cmd/main.go":          "package main\n\nimport \"synth/internal/p\"\n\nvar _ p.Clean\n",
	}
	for name, body := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	diags := deadSurfaceFindings(t, root)
	if len(diags) != 2 ||
		diags[0].Pos.Line != 5 || !strings.HasPrefix(diags[0].Message, "p.Flagged has no non-test reader") ||
		diags[1].Pos.Line != 12 || !strings.HasPrefix(diags[1].Message, "p.Clean.Unread has no non-test reader") {
		t.Fatalf("findings = %v, want p.Flagged at p.go:5 and p.Clean.Unread at p.go:12", diags)
	}
}
