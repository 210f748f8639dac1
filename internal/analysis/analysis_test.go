package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cmtk/internal/analysis"
)

// writeFixture lays a tiny package on disk for loader tests.
func writeFixture(t *testing.T, dir, name, src string) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLoadDirSkipsTestsAndParsesComments(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, "a.go", "package a\n\n//cmlint:allow demo(justified)\nvar X = 1\n")
	writeFixture(t, dir, "a_test.go", "package a\n\nvar Y = 2\n")
	pkg, err := analysis.LoadDir(dir, "", "", analysis.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Name != "a" || len(pkg.Files) != 1 {
		t.Fatalf("got pkg %q with %d files, want a with 1 (tests excluded)", pkg.Name, len(pkg.Files))
	}
}

func TestMalformedAllowIsReported(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, "a.go", "package a\n\n//cmlint:allow demo\nvar X = 1\n\n//cmlint:allow demo()\nvar Y = 2\n")
	pkg, err := analysis.LoadDir(dir, "", "", analysis.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	noop := &analysis.Analyzer{Name: "demo", Run: func(p *analysis.Pass) error { return nil }}
	diags, err := analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{noop}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want 2 (missing reason + empty reason): %v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Analyzer != "allow" {
			t.Errorf("diagnostic attributed to %q, want allow", d.Analyzer)
		}
	}
}

func TestAllowSuppressesSameLineAndLineAbove(t *testing.T) {
	dir := t.TempDir()
	// An allow suppresses its own line and the next — trailing-comment
	// and standalone-comment placement respectively.  The blank line
	// after B keeps C outside both allows' reach.
	writeFixture(t, dir, "a.go", strings.Join([]string{
		"package a",
		"",
		"//cmlint:allow demo(above)",
		"var A = 1",
		"var B = 2 //cmlint:allow demo(same line)",
		"",
		"var C = 3",
		"",
	}, "\n"))
	pkg, err := analysis.LoadDir(dir, "", "", analysis.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Report one diagnostic on every var declaration; only C's survives.
	probe := &analysis.Analyzer{Name: "demo", Run: func(p *analysis.Pass) error {
		for _, f := range p.Pkg.Files {
			for _, d := range f.Decls {
				p.Reportf(d.Pos(), "probe")
			}
		}
		return nil
	}}
	diags, err := analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{probe}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || diags[0].Pos.Line != 7 {
		t.Fatalf("got %v, want exactly one surviving diagnostic on line 7", diags)
	}
}

func TestProseMentionOfAllowIsNotADirective(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir, "a.go",
		"package a\n\n// This package documents cmlint:allow demo in prose.\nvar X = 1\n")
	pkg, err := analysis.LoadDir(dir, "", "", analysis.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	probe := &analysis.Analyzer{Name: "demo", Run: func(p *analysis.Pass) error {
		for _, f := range p.Pkg.Files {
			for _, d := range f.Decls {
				p.Reportf(d.Pos(), "probe")
			}
		}
		return nil
	}}
	diags, err := analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{probe}, dir)
	if err != nil {
		t.Fatal(err)
	}
	// The prose mention neither suppresses the probe nor reports a
	// malformed directive.
	if len(diags) != 1 || diags[0].Analyzer != "demo" {
		t.Fatalf("got %v, want exactly the probe diagnostic", diags)
	}
}

func TestFindModuleResolvesRepoRoot(t *testing.T) {
	root, path, err := analysis.FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	if path != "cmtk" {
		t.Fatalf("module path %q, want cmtk", path)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root %s has no go.mod", root)
	}
}

func TestLoadTreeCoversRepoPackages(t *testing.T) {
	root, _, err := analysis.FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.LoadTree(root, analysis.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"cmtk/internal/shell": true, "cmtk/internal/trace": true,
		"cmtk/internal/transport": true, "cmtk/internal/fleet": true,
		"cmtk/cmd/cmlint": true,
	}
	for _, p := range pkgs {
		delete(want, p.Path)
		if strings.Contains(p.Dir, "testdata") {
			t.Errorf("LoadTree descended into %s", p.Dir)
		}
	}
	if len(want) > 0 {
		t.Errorf("LoadTree missed packages: %v", want)
	}
}

func TestSelectorPathCollapsesIndexes(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go",
		"package x\nfunc f() { t.shards[i].mu.Lock(); s.mu.Lock() }", 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Lock" {
				got = append(got, analysis.SelectorPath(sel.X))
			}
		}
		return true
	})
	if len(got) != 2 || got[0] != "t.shards.mu" || got[1] != "s.mu" {
		t.Fatalf("SelectorPath got %v", got)
	}
}
