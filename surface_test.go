// Dead-surface check: every func, method or type declared at top level
// in a non-test file under internal/ must be read by some non-test file
// (an unexported one by a file of its own package), or carry
// //cmlint:allow deadsurface(reason) naming the test, experiment or doc
// that needs it.  A name only tests reach is surface nothing ships; it
// goes rather than waits for a caller.
//
// Dead-option check: every exported field of a struct named …Options
// under internal/ must be written — as a composite-literal key or an
// assignment's target — by some non-test file other than the one that
// declares it, or carry //cmlint:allow deadoption(reason).  A field that
// only its own defaulting and tests set is a knob nothing ships; it
// becomes an unexported field that in-package tests may still set.
//
// These are whole-tree tests rather than cmlint analyzers: cmlint can
// run on a package subset, and from a subset a reader or writer in
// another package — cmd/, examples/, or cmperf in the benchmarks/ module
// — is invisible.  Both match by name, not by resolved type.
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
	Doc:  "top-level funcs, methods and types under internal/ need a non-test reader",
	Collect: func(p *analysis.Pass) any {
		return surfaceReads(p.Pkg.Files)
	},
	Run: func(p *analysis.Pass) error {
		rel, err := filepath.Rel(p.ModRoot, p.Pkg.Dir)
		if err != nil || !strings.HasPrefix(filepath.ToSlash(rel)+"/", "internal/") {
			return err
		}
		own := surfaceReads(p.Pkg.Files)
		for _, f := range p.Pkg.Files {
			for _, d := range surfaceDecls(f) {
				switch name := d.name.Name; {
				case name == "_" || name == "init" || name == "main":
					continue
				case d.name.IsExported() && readAnywhere(p.Facts, name):
					continue
				case !d.name.IsExported() && own[name]:
					continue
				}
				p.Reportf(d.name.Pos(), "%s.%s%s has no non-test reader; delete it or annotate //cmlint:allow deadsurface(who needs it)",
					p.Pkg.Name, d.recv, d.name.Name)
			}
		}
		return nil
	},
}

// surfaceReads is every identifier the files read, by name, with
// declaration names left out.
func surfaceReads(files []*ast.File) surfaceFacts {
	reads := surfaceFacts{}
	for _, f := range files {
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

// optionWrites is one package's contribution to the dead-option check:
// for each file, the field names it writes.
type optionWrites map[string]map[string]bool

var deadOption = &analysis.Analyzer{
	Name: "deadoption",
	Doc:  "exported fields of …Options structs under internal/ need a non-test writer outside their own file",
	Collect: func(p *analysis.Pass) any {
		w := optionWrites{}
		for _, f := range p.Pkg.Files {
			w[p.Pkg.Fset.Position(f.Pos()).Filename] = fieldWrites(f)
		}
		return w
	},
	Run: func(p *analysis.Pass) error {
		rel, err := filepath.Rel(p.ModRoot, p.Pkg.Dir)
		if err != nil || !strings.HasPrefix(filepath.ToSlash(rel)+"/", "internal/") {
			return err
		}
		for _, f := range p.Pkg.Files {
			file := p.Pkg.Fset.Position(f.Pos()).Filename
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !strings.HasSuffix(ts.Name.Name, "Options") {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, fld := range st.Fields.List {
						for _, name := range fld.Names {
							if name.IsExported() && !writtenOutside(p.Facts, file, name.Name) {
								p.Reportf(name.Pos(), "%s.%s.%s has no non-test writer outside its file; unexport it or annotate //cmlint:allow deadoption(who needs it)",
									p.Pkg.Name, ts.Name.Name, name.Name)
							}
						}
					}
				}
			}
		}
		return nil
	},
}

// fieldWrites is every name a file writes as a composite-literal key or
// as the selector an assignment targets.
func fieldWrites(f *ast.File) map[string]bool {
	w := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				w[id.Name] = true
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok {
					w[sel.Sel.Name] = true
				}
			}
		}
		return true
	})
	return w
}

// writtenOutside reports whether a file other than decl writes name.
func writtenOutside(facts []any, decl, name string) bool {
	for _, f := range facts {
		for file, w := range f.(optionWrites) {
			if file != decl && w[name] {
				return true
			}
		}
	}
	return false
}

// findings runs an analyzer over every non-test file under root, nested
// modules included.
func findings(t *testing.T, root string, a *analysis.Analyzer) []analysis.Diagnostic {
	t.Helper()
	pkgs, err := analysis.LoadTree(root)
	if err != nil {
		t.Fatal(err)
	}
	modRoot, _, err := analysis.FindModule(root)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(pkgs, []*analysis.Analyzer{a}, modRoot)
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

// TestDeadSurface holds the repository to the rule.
func TestDeadSurface(t *testing.T) {
	for _, d := range findings(t, ".", deadSurface) {
		t.Error(d)
	}
}

// TestDeadSurfaceSynthetic checks the check itself on a small tree: an
// unread exported name and an unexported one that only a test and
// another package's same-named declaration read are flagged; a read name,
// a suppressed one, init and an unexported one its own package reads are
// not.
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

func used() {}

var _ = used

func init() {}
`,
		"internal/p/p_test.go": "package p\n\nfunc init() { Flagged(); new(Clean).Unread(); Clean{}.unexported() }\n",
		"cmd/main.go":          "package main\n\nimport \"synth/internal/p\"\n\nvar _ p.Clean\n\nfunc unexported() {}\n\nfunc main() { unexported() }\n",
	}
	writeTree(t, root, files)
	diags := findings(t, root, deadSurface)
	want := []struct {
		line int
		name string
	}{{5, "p.Flagged"}, {10, "p.Clean.unexported"}, {12, "p.Clean.Unread"}}
	ok := len(diags) == len(want)
	for i := 0; ok && i < len(want); i++ {
		ok = diags[i].Pos.Line == want[i].line && strings.HasPrefix(diags[i].Message, want[i].name+" has no non-test reader")
	}
	if !ok {
		t.Fatalf("findings = %v, want %v (line, name)", diags, want)
	}
}

// writeTree writes a fixture tree of files, by slash path, under root.
func writeTree(t *testing.T, root string, files map[string]string) {
	t.Helper()
	for name, body := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDeadOptions holds the repository to the rule.
func TestDeadOptions(t *testing.T) {
	for _, d := range findings(t, ".", deadOption) {
		t.Error(d)
	}
}

// TestDeadOptionsSynthetic checks the check itself on a small tree: a
// field only its own file writes, one only a test writes and one no file
// writes are flagged; fields written by a composite literal or an
// assignment in another file, a suppressed one, unexported ones and the
// fields of a struct not named …Options are not.
func TestDeadOptionsSynthetic(t *testing.T) {
	root := t.TempDir()
	writeTree(t, root, map[string]string{
		"go.mod": "module synth\n\ngo 1.22\n",
		"internal/p/p.go": `package p

type Options struct {
	Keyed    int
	Assigned int
	Defaulted int
	TestOnly int
	Unset    int
	//cmlint:allow deadoption(fixture: a reasoned exception)
	Suppressed int
	hidden     int
}

type Config struct{ Unset int }

func (o Options) withDefaults() Options {
	o.Defaulted = 1
	o.hidden = 2
	return o
}
`,
		"internal/p/p_test.go": "package p\n\nvar _ = Options{TestOnly: 1}\n",
		"internal/p/use.go":    "package p\n\nvar _ = Options{Keyed: 1}\n",
		"cmd/main.go":          "package main\n\nimport \"synth/internal/p\"\n\nfunc main() { var o p.Options; o.Assigned = 1; _ = o }\n",
	})
	diags := findings(t, root, deadOption)
	want := []struct {
		line int
		name string
	}{{6, "p.Options.Defaulted"}, {7, "p.Options.TestOnly"}, {8, "p.Options.Unset"}}
	ok := len(diags) == len(want)
	for i := 0; ok && i < len(want); i++ {
		ok = diags[i].Pos.Line == want[i].line && strings.HasPrefix(diags[i].Message, want[i].name+" has no non-test writer")
	}
	if !ok {
		t.Fatalf("findings = %v, want %v (line, name)", diags, want)
	}
}
