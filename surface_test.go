// Dead-surface check: every func, method, type or interface method
// declared at top level in a non-test file under internal/ must be
// reachable from a shipped binary, or carry
// //cmlint:allow deadsurface(reason) naming the test-support package,
// marker interface, standard-library interface or DESIGN §11 entry point
// that needs it.  Surface no binary reaches is surface nothing ships; it
// goes rather than waits for a caller.
//
// Reachability is over objects that go/types resolves, not over names,
// so two methods that share a name do not keep each other alive.  The
// roots are the main of every package main (cmd/, examples/ and cmperf
// in the benchmarks/ module), every init and package-level var
// initializer of a package some main links, and every declaration that
// carries the allow.  A reached declaration reaches every func, method,
// type and var its source uses.  A call through an interface method
// reaches that method on every tree type that implements the interface,
// promoted methods included.  A reached type keeps the methods that the
// standard library calls through the interfaces in stdCallsSrc.
//
// Dead-option check: every exported field of a struct named …Options
// under internal/ must be written — as a composite-literal key or an
// assignment's target, resolved to that very field — by some non-test
// file other than the one that declares it, or carry
// //cmlint:allow deadoption(reason).  A field that only its own
// defaulting and tests set is a knob nothing ships; it becomes an
// unexported field that in-package tests may still set.
//
// Dead-flag check: every flag a package under cmd/ defines through the
// flag package (flag.String, fs.DurationVar, …) must be read by code
// reachable from main.
//
// These are whole-tree tests rather than cmlint analyzers: cmlint can
// run on a package subset, and from a subset a reader or writer in
// another package — cmd/, examples/, or cmperf in the benchmarks/ module
// — is invisible.
package cmtk_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/printer"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"cmtk/internal/analysis"
)

// typedTree is every non-test package under one root, nested modules
// included, parsed into one file set and type-checked.
type typedTree struct {
	fset   *token.FileSet
	std    types.ImporterFrom
	pkgs   map[string]*typedPkg // by import path
	order  []*typedPkg          // dependencies first
	allows map[allowAt]bool     // every //cmlint:allow in the tree
}

// allowAt is where one //cmlint:allow sits, and for which analyzer.
type allowAt struct {
	analyzer, file string
	line           int
}

// typedPkg is one package of the tree.
type typedPkg struct {
	path     string
	rel      string // slash directory relative to the root ("internal/shell")
	files    []*ast.File
	types    *types.Package
	info     *types.Info
	checking bool
}

var allowDirective = regexp.MustCompile(`^//cmlint:allow ([a-z]+)\(([^)]+)\)`)

// std is the standard-library importer every typedTree shares, so the
// standard library is type-checked once per test binary.  It checks from
// source, so no export data and no network is needed; cgo is off, so
// packages like net use their pure-Go files.
var std struct {
	once sync.Once
	fset *token.FileSet
	imp  types.ImporterFrom
}

// loadTyped parses and type-checks every non-test package under root.
func loadTyped(root string) (*typedTree, error) {
	_, modPath, err := analysis.FindModule(root)
	if err != nil {
		return nil, err
	}
	std.once.Do(func() {
		build.Default.CgoEnabled = false
		std.fset = token.NewFileSet()
		std.imp = importer.ForCompiler(std.fset, "source", nil).(types.ImporterFrom)
	})
	t := &typedTree{fset: std.fset, std: std.imp, pkgs: map[string]*typedPkg{}, allows: map[allowAt]bool{}}
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return fs.SkipDir
		}
		return t.parseDir(root, dir, modPath)
	})
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(t.pkgs))
	for path := range t.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := t.ImportFrom(path, "", 0); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// parseDir parses one directory's non-test files into a package.
func (t *typedTree) parseDir(root, dir, modPath string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return err
	}
	p := &typedPkg{path: modPath, rel: filepath.ToSlash(rel)}
	if p.rel != "." {
		p.path += "/" + p.rel
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			if err != nil {
				return err
			}
			continue
		}
		f, err := parser.ParseFile(t.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return err
		}
		p.files = append(p.files, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if m := allowDirective.FindStringSubmatch(c.Text); m != nil {
					pos := t.fset.Position(c.Pos())
					t.allows[allowAt{m[1], pos.Filename, pos.Line}] = true
				}
			}
		}
	}
	if len(p.files) > 0 {
		t.pkgs[p.path] = p
	}
	return nil
}

func (t *typedTree) Import(path string) (*types.Package, error) { return t.ImportFrom(path, "", 0) }

// ImportFrom type-checks a tree package on first use and hands every
// other path to the standard-library source importer.
func (t *typedTree) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	p := t.pkgs[path]
	if p == nil {
		return t.std.ImportFrom(path, dir, mode)
	}
	if p.types != nil {
		return p.types, nil
	}
	if p.checking {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	p.checking = true
	p.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{Importer: t}).Check(path, t.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	p.types = pkg
	t.order = append(t.order, p)
	return pkg, nil
}

// allowed reports whether an allow for analyzer sits on pos's line or
// the line above.
func (t *typedTree) allowed(analyzer string, pos token.Pos) bool {
	at := t.fset.Position(pos)
	return t.allows[allowAt{analyzer, at.Filename, at.Line}] || t.allows[allowAt{analyzer, at.Filename, at.Line - 1}]
}

// render prints an expression as source.
func (t *typedTree) render(e ast.Expr) string {
	var b strings.Builder
	printer.Fprint(&b, t.fset, e)
	return b.String()
}

// finding is one diagnostic of the typed checks.
type finding struct {
	pos token.Position
	msg string
}

func (f finding) String() string { return fmt.Sprintf("%s:%d: %s", f.pos.Filename, f.pos.Line, f.msg) }

func sortFindings(fs []finding) []finding {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i].pos, fs[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return fs
}

// stdCallsSrc names the standard-library interfaces through which the
// standard library calls a tree type's methods: fmt and errors on any
// value handed to them, container/heap and sort on their arguments.  When
// the tree hands a type to another such caller (an encoder, net/http),
// that caller's interface goes here too.
const stdCallsSrc = `package stdcalls

import (
	"container/heap"
	"fmt"
	"sort"
)

type (
	errorer       interface{ error }
	stringer      fmt.Stringer
	unwrapper     interface{ Unwrap() error }
	heapInterface heap.Interface
	sortInterface sort.Interface
)
`

// declNode is one top-level declaration with the info that resolves it.
type declNode struct {
	node ast.Node
	pkg  *typedPkg
}

// reachability is the set of tree objects reachable from the roots.
type reachability struct {
	decl    map[types.Object]declNode
	reached map[types.Object]bool
	visited map[ast.Node]bool
	work    []declNode
	named   []types.Type       // every tree named non-interface type
	std     []*types.Interface // stdCallsSrc's interfaces
}

// reach computes what the roots reach.
func (t *typedTree) reach() (*reachability, error) {
	r := &reachability{decl: map[types.Object]declNode{}, reached: map[types.Object]bool{}, visited: map[ast.Node]bool{}}
	f, err := parser.ParseFile(t.fset, "stdcalls.go", stdCallsSrc, 0)
	if err != nil {
		return nil, err
	}
	std, err := (&types.Config{Importer: t}).Check("stdcalls", t.fset, []*ast.File{f}, nil)
	if err != nil {
		return nil, err
	}
	for _, name := range std.Scope().Names() {
		r.std = append(r.std, std.Scope().Lookup(name).Type().Underlying().(*types.Interface))
	}
	linked := map[*types.Package]bool{}
	var link func(*types.Package)
	link = func(p *types.Package) {
		if !linked[p] {
			linked[p] = true
			for _, q := range p.Imports() {
				link(q)
			}
		}
	}
	for _, p := range t.order {
		if p.types.Name() == "main" {
			link(p.types)
		}
	}
	var roots []types.Object
	var inits []declNode // package-level var specs of linked packages
	for _, p := range t.order {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := p.info.Defs[d.Name]
					r.decl[obj] = declNode{d, p}
					plain := d.Recv == nil
					if plain && (d.Name.Name == "init" && linked[p.types] || d.Name.Name == "main" && p.types.Name() == "main") ||
						t.allowed("deadsurface", d.Name.Pos()) {
						roots = append(roots, obj)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							obj := p.info.Defs[s.Name]
							r.decl[obj] = declNode{s, p}
							if t.allowed("deadsurface", s.Name.Pos()) {
								roots = append(roots, obj)
							}
							if _, ok := obj.Type().Underlying().(*types.Interface); !ok {
								r.named = append(r.named, obj.Type())
							}
							if it, ok := s.Type.(*ast.InterfaceType); ok {
								for _, m := range it.Methods.List {
									for _, name := range m.Names {
										r.decl[p.info.Defs[name]] = declNode{m, p}
										if t.allowed("deadsurface", name.Pos()) {
											roots = append(roots, p.info.Defs[name])
										}
									}
								}
							}
						case *ast.ValueSpec:
							for _, name := range s.Names {
								r.decl[p.info.Defs[name]] = declNode{s, p}
							}
							if d.Tok == token.VAR && linked[p.types] {
								inits = append(inits, declNode{s, p})
							}
						}
					}
				}
			}
		}
	}
	for _, obj := range roots {
		r.mark(obj)
	}
	for _, n := range inits {
		r.visit(n)
	}
	for len(r.work) > 0 {
		n := r.work[len(r.work)-1]
		r.work = r.work[:len(r.work)-1]
		ast.Inspect(n.node, func(x ast.Node) bool {
			if id, ok := x.(*ast.Ident); ok {
				if obj := n.pkg.info.Uses[id]; obj != nil {
					r.mark(obj)
				}
			}
			return true
		})
	}
	return r, nil
}

func (r *reachability) visit(n declNode) {
	if !r.visited[n.node] {
		r.visited[n.node] = true
		r.work = append(r.work, n)
	}
}

// mark reaches obj, its declaration, and what a call through it or a
// value of it reaches.
func (r *reachability) mark(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	if r.reached[obj] {
		return
	}
	r.reached[obj] = true
	if n, ok := r.decl[obj]; ok {
		r.visit(n)
	}
	switch o := obj.(type) {
	case *types.Func:
		recv := o.Type().(*types.Signature).Recv()
		if recv == nil {
			return
		}
		if iface, ok := recv.Type().Underlying().(*types.Interface); ok && iface.IsMethodSet() {
			for _, T := range r.named {
				r.dispatch(T, iface, o)
			}
		}
	case *types.TypeName:
		if _, ok := r.decl[o]; !ok {
			return
		}
		for _, iface := range r.std {
			for i := 0; i < iface.NumMethods(); i++ {
				r.dispatch(o.Type(), iface, iface.Method(i))
			}
		}
	}
}

// dispatch reaches T's method m when T or *T implements iface.
func (r *reachability) dispatch(T types.Type, iface *types.Interface, m *types.Func) {
	if _, ok := T.Underlying().(*types.Interface); ok {
		return
	}
	if !types.Implements(T, iface) && !types.Implements(types.NewPointer(T), iface) {
		return
	}
	if obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(T), false, m.Pkg(), m.Name()); obj != nil {
		r.mark(obj)
	}
}

// under reports whether p is in the root module's directory dir.
func under(p *typedPkg, dir string) bool {
	return strings.HasPrefix(p.rel+"/", dir+"/")
}

// deadSurface returns every declaration under internal/ that no root
// reaches.
func deadSurface(t *typedTree, r *reachability) []finding {
	var out []finding
	report := func(p *typedPkg, name *ast.Ident, qual string) {
		obj := p.info.Defs[name]
		if name.Name == "_" || name.Name == "init" || r.reached[obj] || t.allowed("deadsurface", name.Pos()) {
			return
		}
		out = append(out, finding{t.fset.Position(name.Pos()),
			fmt.Sprintf("%s.%s is reachable from no binary; delete it or annotate //cmlint:allow deadsurface(who needs it)", p.types.Name(), qual)})
	}
	for _, p := range t.order {
		if !under(p, "internal") {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					qual := d.Name.Name
					if d.Recv != nil {
						qual = analysis.SelectorPath(d.Recv.List[0].Type) + "." + qual
					}
					report(p, d.Name, qual)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						ts, ok := s.(*ast.TypeSpec)
						if !ok {
							continue
						}
						report(p, ts.Name, ts.Name.Name)
						if it, ok := ts.Type.(*ast.InterfaceType); ok {
							for _, m := range it.Methods.List {
								for _, name := range m.Names {
									report(p, name, ts.Name.Name+"."+name.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	return sortFindings(out)
}

// deadOptions returns every exported field of a …Options struct under
// internal/ that no non-test file outside its own writes.
func deadOptions(t *typedTree) []finding {
	writers := map[types.Object]map[string]bool{}
	write := func(p *typedPkg, id *ast.Ident, file string) {
		if v, ok := p.info.Uses[id].(*types.Var); ok && v.IsField() {
			if writers[v.Origin()] == nil {
				writers[v.Origin()] = map[string]bool{}
			}
			writers[v.Origin()][file] = true
		}
	}
	for _, p := range t.order {
		for _, f := range p.files {
			file := t.fset.Position(f.Pos()).Filename
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								write(p, id, file)
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							write(p, sel.Sel, file)
						}
					}
				}
				return true
			})
		}
	}
	var out []finding
	for _, p := range t.order {
		if !under(p, "internal") {
			continue
		}
		for _, f := range p.files {
			file := t.fset.Position(f.Pos()).Filename
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || !strings.HasSuffix(ts.Name.Name, "Options") {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return false
				}
				for _, fld := range st.Fields.List {
					for _, name := range fld.Names {
						if !name.IsExported() || t.allowed("deadoption", name.Pos()) {
							continue
						}
						outside := false
						for w := range writers[p.info.Defs[name]] {
							outside = outside || w != file
						}
						if !outside {
							out = append(out, finding{t.fset.Position(name.Pos()),
								fmt.Sprintf("%s.%s.%s has no non-test writer outside its file; unexport it or annotate //cmlint:allow deadoption(who needs it)",
									p.types.Name(), ts.Name.Name, name.Name)})
						}
					}
				}
				return false
			})
		}
	}
	return sortFindings(out)
}

// flagDefiner matches the flag package's functions and FlagSet methods
// that define a flag whose value lands in a variable: flag.String returns
// a pointer to it, flag.StringVar fills the one its first argument points
// to.
var flagDefiner = regexp.MustCompile(`^((Bool|Duration|Float64|Int|Int64|String|Uint|Uint64)(Var)?|TextVar)$`)

// deadFlags returns every flag a package under cmd/ defines whose value
// no code reachable from main reads.
func deadFlags(t *typedTree, r *reachability) []finding {
	var out []finding
	for _, p := range t.order {
		if !under(p, "cmd") {
			continue
		}
		// check reports the flag call defines unless some reached code
		// reads target other than through def, the identifier the
		// definition binds.
		check := func(call *ast.CallExpr, def ast.Expr) {
			var id *ast.Ident
			switch e := def.(type) {
			case *ast.Ident:
				id = e
			case *ast.SelectorExpr:
				id = e.Sel
			}
			var target types.Object
			if id != nil {
				if target = p.info.Defs[id]; target == nil {
					target = p.info.Uses[id]
				}
			}
			if target == nil || !r.readsReached(p, target, id) {
				out = append(out, finding{t.fset.Position(call.Pos()),
					fmt.Sprintf("%s: flag %s is read by no code reachable from main; delete it", p.rel, t.render(call.Args[len(call.Args)-3]))})
			}
		}
		definer := func(e ast.Expr) (*ast.CallExpr, bool) {
			call, ok := e.(*ast.CallExpr)
			if !ok {
				return nil, false
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return nil, false
			}
			fn, ok := p.info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "flag" || !flagDefiner.MatchString(fn.Name()) {
				return nil, false
			}
			return call, strings.HasSuffix(fn.Name(), "Var")
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				var lhs, rhs []ast.Expr
				switch n := n.(type) {
				case *ast.AssignStmt:
					lhs, rhs = n.Lhs, n.Rhs
				case *ast.ValueSpec:
					for _, name := range n.Names {
						lhs = append(lhs, name)
					}
					rhs = n.Values
				case *ast.ExprStmt:
					rhs = []ast.Expr{n.X}
				}
				for i, e := range rhs {
					switch call, isVar := definer(e); {
					case call == nil:
					case isVar:
						u, _ := call.Args[0].(*ast.UnaryExpr)
						if u != nil && u.Op == token.AND {
							check(call, u.X)
						} else {
							check(call, nil)
						}
					case i < len(lhs):
						check(call, lhs[i])
					default:
						check(call, nil) // the result is dropped
					}
				}
				return true
			})
		}
	}
	return sortFindings(out)
}

// readsReached reports whether some use of obj in p other than def lies
// in a reached declaration.
func (r *reachability) readsReached(p *typedPkg, obj types.Object, def *ast.Ident) bool {
	for id, o := range p.info.Uses {
		if o != obj || id == def {
			continue
		}
		for n := range r.visited {
			if n.Pos() <= id.Pos() && id.Pos() < n.End() {
				return true
			}
		}
	}
	return false
}

// repo is the repository, loaded and reached once for the three
// whole-tree tests.
var repo struct {
	once sync.Once
	tree *typedTree
	r    *reachability
	err  error
}

func loadRepo(t *testing.T) (*typedTree, *reachability) {
	t.Helper()
	repo.once.Do(func() {
		if repo.tree, repo.err = loadTyped("."); repo.err == nil {
			repo.r, repo.err = repo.tree.reach()
		}
	})
	if repo.err != nil {
		t.Fatal(repo.err)
	}
	return repo.tree, repo.r
}

// loadFixture writes a fixture tree and loads it.
func loadFixture(t *testing.T, files map[string]string) (*typedTree, *reachability) {
	t.Helper()
	root := t.TempDir()
	writeTree(t, root, files)
	tree, err := loadTyped(root)
	if err != nil {
		t.Fatal(err)
	}
	r, err := tree.reach()
	if err != nil {
		t.Fatal(err)
	}
	return tree, r
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

// wantFindings fails unless got is exactly want, as (line, message
// prefix) pairs in position order.
func wantFindings(t *testing.T, got []finding, want []string) {
	t.Helper()
	ok := len(got) == len(want)
	for i := 0; ok && i < len(want); i++ {
		ok = strings.HasPrefix(fmt.Sprintf("%d: %s", got[i].pos.Line, got[i].msg), want[i])
	}
	if !ok {
		t.Fatalf("findings = %v, want %q", got, want)
	}
}

// TestDeadSurface holds the repository to the rule.
func TestDeadSurface(t *testing.T) {
	tree, r := loadRepo(t)
	for _, f := range deadSurface(tree, r) {
		t.Error(f)
	}
}

// TestDeadOptions holds the repository to the rule.
func TestDeadOptions(t *testing.T) {
	tree, _ := loadRepo(t)
	for _, f := range deadOptions(tree) {
		t.Error(f)
	}
}

// TestDeadFlags holds the repository to the rule.
func TestDeadFlags(t *testing.T) {
	tree, r := loadRepo(t)
	for _, f := range deadFlags(tree, r) {
		t.Error(f)
	}
}

// TestDeadSurfaceSynthetic checks the check itself on a small tree with
// the shapes it exists for: same-named methods on two types where only
// one is called; a call cycle through an interface that only a
// forwarding wrapper keeps alive; a method promoted through embedding and
// called through an interface, which is live; a sealed interface under
// an allow, which keeps its implementations; and a method only the
// standard library calls.  Tests, init and package-level initializers
// behave as before: a test's reads do not count, the others are roots.
func TestDeadSurfaceSynthetic(t *testing.T) {
	tree, r := loadFixture(t, map[string]string{
		"go.mod": "module synth\n\ngo 1.22\n",
		"internal/p/p.go": `package p

import "fmt"

type TCP struct{}

func (*TCP) Flush() {}

type Flaky struct{}

func (*Flaky) Flush() {}

type Iface interface {
	Send()
	Caps() int
}

type Rel struct{}

func (Rel) Send()     {}
func (Rel) Caps() int { return 1 }

type Faulty struct{ inner Iface }

func NewFaulty(i Iface) Faulty { return Faulty{i} }

func (f Faulty) Send()     { f.inner.Send() }
func (f Faulty) Caps() int { return f.inner.Caps() }

type Listener interface{ OnFailure() }

type hub struct{}

func (*hub) OnFailure() {}

type Shell struct{ *hub }

func NewShell() *Shell { return &Shell{&hub{}} }

//cmlint:allow deadsurface(fixture: a sealed interface)
type Stmt interface{ stmt() }

type Create struct{}

func (Create) stmt() {}

func Parse() Stmt { return Create{} }

type Name string

func (n Name) String() string { return string(n) }

func Show(n Name) string { return fmt.Sprint(n) }

func unexported() {}

func used() {}

var _ = used

func init() {}

func Unread() {}
`,
		"internal/p/p_test.go": "package p\n\nfunc init() { Unread(); unexported(); new(TCP).Flush(); Rel{}.Caps() }\n",
		"cmd/main.go": `package main

import "synth/internal/p"

var _ p.TCP

func main() {
	new(p.Flaky).Flush()
	var i p.Iface = p.NewFaulty(p.Rel{})
	i.Send()
	var l p.Listener = p.NewShell()
	l.OnFailure()
	_ = p.Parse()
	_ = p.Show("x")
}
`,
	})
	wantFindings(t, deadSurface(tree, r), []string{
		"7: p.TCP.Flush is reachable from no binary",
		"15: p.Iface.Caps is reachable from no binary",
		"21: p.Rel.Caps is reachable from no binary",
		"28: p.Faulty.Caps is reachable from no binary",
		"55: p.unexported is reachable from no binary",
		"63: p.Unread is reachable from no binary",
	})
}

// TestDeadOptionsSynthetic checks the check itself on a small tree: a
// field only its own file writes, one only a test writes, one no file
// writes, and one that shares its name with a written field of another
// …Options struct are flagged; fields written by a composite literal or
// an assignment in another file, a suppressed one, unexported ones and
// the fields of a struct not named …Options are not.
func TestDeadOptionsSynthetic(t *testing.T) {
	tree, _ := loadFixture(t, map[string]string{
		"go.mod": "module synth\n\ngo 1.22\n",
		"internal/p/p.go": `package p

type Options struct {
	Keyed     int
	Assigned  int
	Defaulted int
	TestOnly  int
	Unset     int
	Store     int
	//cmlint:allow deadoption(fixture: a reasoned exception)
	Suppressed int
	hidden     int
}

type CoreOptions struct{ Store int }

type Config struct{ Unset int }

func (o Options) withDefaults() Options {
	o.Defaulted = 1
	o.hidden = 2
	return o
}
`,
		"internal/p/p_test.go": "package p\n\nvar _ = Options{TestOnly: 1}\n",
		"internal/p/use.go":    "package p\n\nvar _ = Options{Keyed: 1}\n",
		"cmd/main.go": `package main

import "synth/internal/p"

func main() {
	var o p.Options
	o.Assigned = 1
	_ = o
	_ = p.CoreOptions{Store: 1}
}
`,
	})
	wantFindings(t, deadOptions(tree), []string{
		"6: p.Options.Defaulted has no non-test writer",
		"7: p.Options.TestOnly has no non-test writer",
		"8: p.Options.Unset has no non-test writer",
		"9: p.Options.Store has no non-test writer",
	})
}

// TestDeadFlagsSynthetic checks the check itself on a small tree: a
// flag only unreachable code reads, one whose result is dropped and one
// whose variable nothing reads are flagged; flags main reads directly,
// through a FlagSet or in a closure are not.
func TestDeadFlagsSynthetic(t *testing.T) {
	tree, r := loadFixture(t, map[string]string{
		"go.mod": "module synth\n\ngo 1.22\n",
		"cmd/tool/main.go": `package main

import (
	"flag"
	"fmt"
	"time"
)

var dead = flag.Bool("dead", false, "read only by unreachable code")

func unreachable() bool { return *dead }

func main() {
	addr := flag.String("addr", "", "read by main")
	var n int
	flag.IntVar(&n, "n", 0, "read by main")
	fs := flag.NewFlagSet("sub", flag.ExitOnError)
	wait := fs.Duration("wait", time.Second, "read in a closure")
	flag.Duration("ignored", 0, "result dropped")
	var quiet bool
	flag.BoolVar(&quiet, "quiet", false, "never read")
	flag.Parse()
	report := func() { fmt.Println(*wait) }
	report()
	fmt.Println(*addr, n)
}
`,
	})
	wantFindings(t, deadFlags(tree, r), []string{
		`9: cmd/tool: flag "dead" is read by no code`,
		`19: cmd/tool: flag "ignored" is read by no code`,
		`21: cmd/tool: flag "quiet" is read by no code`,
	})
}
