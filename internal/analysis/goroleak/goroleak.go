// Package goroleak requires every goroutine started in a library
// package to be visibly tied to a shutdown path.  The toolkit's
// concurrency model (DESIGN.md §9) ends every component's life with
// Drain/Close/Stop; a goroutine those paths cannot reach is a leak that
// accumulates under the chaos soak and poisons goroutine-count
// baselines in tests.
//
// A `go` statement passes when the launched body — a function literal,
// a same-package function or method resolved by name, or a func literal
// bound once to a field (`go x.f()` with `x.f = func(){…}` or
// `f: func(){…}` in the same package) — contains a recognizable shutdown
// tie:
//
//   - a WaitGroup Done (usually deferred), which a Close/Drain Waits on,
//   - a receive, select or predicate on a done/closed/quit/stop signal
//     (t.done channel, t.closed flag, ctx.Done()),
//
// or when the launching function registers the goroutine on a
// WaitGroup (x.wg.Add before the go statement).  A bound literal whose
// body only calls a same-package function or method is tied when that
// callee's body is, one level deep and resolved by name like the rest:
// a flusher bound once per outbox (`o.flush = func() { t.flushPeer(to,
// o) }`) is checked through flushPeer.  A goroutine whose body
// cannot be resolved (a method from another package, like
// http.Server.Serve) must carry //cmlint:allow goroleak(reason) naming
// who stops it.  Package main is exempt: its goroutines share the
// process's lifetime by construction.
package goroleak

import (
	"go/ast"
	"regexp"
	"strings"

	"cmtk/internal/analysis"
)

// Analyzer is the goroleak checker.
var Analyzer = &analysis.Analyzer{
	Name: "goroleak",
	Doc:  "library goroutines must be tied to a shutdown path (WaitGroup, done/closed signal, or context)",
	Run:  run,
}

// signalName matches identifiers that by convention carry a shutdown
// signal.
var signalName = regexp.MustCompile(`(?i)^(done|closed|closing|quit|stop|stopped|shutdown|ctx|cancel)$`)

// wgName matches WaitGroup-ish identifiers for the Add-before-go
// heuristic.
var wgName = regexp.MustCompile(`(?i)(wg|waitgroup|ready)$`)

func run(p *analysis.Pass) error {
	if p.Pkg.Name == "main" {
		return nil
	}
	// Index this package's function and method bodies by name, and the
	// func literals bound to fields by field name, for resolving
	// `go x.f()`.
	r := resolver{decls: map[string][]*ast.FuncDecl{}, bound: map[string][]*ast.FuncLit{}}
	for _, file := range p.Pkg.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				r.decls[fd.Name.Name] = append(r.decls[fd.Name.Name], fd)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt: // x.f = func() {…}
				for i, lhs := range x.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok || i >= len(x.Rhs) {
						continue
					}
					if lit, ok := x.Rhs[i].(*ast.FuncLit); ok {
						r.bound[sel.Sel.Name] = append(r.bound[sel.Sel.Name], lit)
					}
				}
			case *ast.KeyValueExpr: // T{f: func() {…}}
				key, isKey := x.Key.(*ast.Ident)
				lit, isLit := x.Value.(*ast.FuncLit)
				if isKey && isLit {
					r.bound[key.Name] = append(r.bound[key.Name], lit)
				}
			}
			return true
		})
	}
	for _, file := range p.Pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if r.checkGo(fd, g) {
					return true
				}
				p.Reportf(g.Pos(), "goroutine is not visibly tied to a shutdown path (no WaitGroup Done, done/closed signal, or context in its body); tie it to Close/Drain/Stop or annotate //cmlint:allow goroleak(who stops it)")
				return true
			})
		}
	}
	return nil
}

// resolver finds the bodies a launched call can run, by name: declared
// functions and methods, and func literals bound to a field.
type resolver struct {
	decls map[string][]*ast.FuncDecl
	bound map[string][]*ast.FuncLit
}

// checkGo reports whether the go statement passes any heuristic.
func (r resolver) checkGo(enclosing *ast.FuncDecl, g *ast.GoStmt) bool {
	// Heuristic 1: the launching function puts the goroutine on a
	// WaitGroup before starting it.
	addBefore := false
	ast.Inspect(enclosing.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() >= g.Pos() {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Add" {
			path := analysis.SelectorPath(sel.X)
			if wgName.MatchString(lastComponent(path)) {
				addBefore = true
			}
		}
		return true
	})
	if addBefore {
		return true
	}
	// Heuristic 2: the launched body contains a shutdown tie.
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		return bodyTied(lit.Body)
	}
	if r.calleeTied(g.Call.Fun) {
		return true
	}
	if sel, ok := g.Call.Fun.(*ast.SelectorExpr); ok {
		for _, lit := range r.bound[sel.Sel.Name] {
			if bodyTied(lit.Body) || r.forwardsToTied(lit.Body) {
				return true
			}
		}
	}
	return false
}

// calleeTied reports whether a same-package function or method with the
// called name (f() or x.f()) has a tied body.
func (r resolver) calleeTied(fun ast.Expr) bool {
	name := ""
	switch fun := fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	}
	for _, fd := range r.decls[name] {
		if bodyTied(fd.Body) {
			return true
		}
	}
	return false
}

// forwardsToTied reports whether body is a single call of a same-package
// function or method whose own body is tied.
func (r resolver) forwardsToTied(body *ast.BlockStmt) bool {
	if len(body.List) != 1 {
		return false
	}
	stmt, ok := body.List[0].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := stmt.X.(*ast.CallExpr)
	return ok && r.calleeTied(call.Fun)
}

// bodyTied scans a launched body for a shutdown tie.
func bodyTied(body *ast.BlockStmt) bool {
	tied := false
	ast.Inspect(body, func(n ast.Node) bool {
		if tied {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				tied = true // wg.Done() or ctx.Done()
			}
		case *ast.SelectorExpr:
			if signalName.MatchString(x.Sel.Name) {
				tied = true // t.done, t.closed, s.quit ...
			}
		case *ast.Ident:
			if signalName.MatchString(x.Name) {
				tied = true
			}
		}
		return !tied
	})
	return tied
}

func lastComponent(path string) string {
	if i := strings.LastIndex(path, "."); i >= 0 {
		return path[i+1:]
	}
	return path
}
