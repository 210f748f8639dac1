// Package lockorder enforces the documented mutex acquisition order
// (DESIGN.md §11): guarantee Monitor mu (10) → trace mu (20).  The
// order is declared once, in the source, next to each mutex:
//
//	//cmlint:lockrank 10
//	mu sync.Mutex
//
// gives the field a rank; within any one function, ranked mutexes must
// be acquired in strictly ascending rank.  A function that takes ranked
// locks on behalf of its callers declares so on its doc comment:
//
//	//cmlint:acquires 20
//	func (t *T) AppendUnit(...)
//
// and every call to it is checked against the caller's currently held
// ranks — which is how the cross-package half of the invariant (the
// Monitor holds its lock while it reads the trace, whose locks rank
// above it; trace code never calls back into a Monitor) becomes
// machine-checked.
//
// Independent of ranks, the analyzer flags double-acquire paths: any
// mutex-named receiver locked twice in one straight-line path without
// an intervening unlock is a self-deadlock.
//
// The scan is linear over each function body in source order — an
// over-approximation that treats branches as sequential.  Two idioms
// are modeled precisely so they do not false-positive: a function
// literal (callback, returned closure, goroutine body) is analyzed as
// its own sequence with its own lock state, and `defer mu.Unlock()`
// releases at the end of its enclosing block (the early-return-
// while-locked idiom).  Anything else surprising is suppressed with
// //cmlint:allow lockorder(reason).
package lockorder

import (
	"go/ast"
	"go/token"
	"regexp"
	"strconv"
	"strings"

	"cmtk/internal/analysis"
)

// Analyzer is the lockorder checker.
var Analyzer = &analysis.Analyzer{
	Name:    "lockorder",
	Doc:     "mutexes annotated //cmlint:lockrank must be acquired in ascending rank; no double-acquire paths",
	Collect: collect,
	Run:     run,
}

var lockrankRe = regexp.MustCompile(`cmlint:lockrank\s+(\d+)`)
var acquiresRe = regexp.MustCompile(`cmlint:acquires\s+([\d,\s]+)`)

// mutexName matches receivers that are mutexes by convention: mu,
// fooMu, fooMutex.
var mutexName = regexp.MustCompile(`(?i)(^mu$|mu$|mutex$)`)

// facts carries one package's declared ranks and acquiring functions.
type facts struct {
	pkg string
	// ranks maps a mutex field name to its declared rank.  Ranks apply
	// only inside the declaring package: the fields are unexported, so no
	// other package can lock them directly.
	ranks map[string]int
	// acquires maps a function name to the ranks one call transiently
	// acquires (and releases).  Matched by bare name across packages.
	acquires map[string][]int
}

func collect(p *analysis.Pass) any {
	f := &facts{pkg: p.Pkg.Name, ranks: map[string]int{}, acquires: map[string][]int{}}
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.Field:
				rank, ok := rankOf(d.Doc, d.Comment)
				if ok {
					for _, name := range d.Names {
						f.ranks[name.Name] = rank
					}
				}
			case *ast.FuncDecl:
				if d.Doc == nil {
					return true
				}
				// Match raw comment lines: CommentGroup.Text() strips
				// directive-shaped lines like //cmlint:acquires.
				for _, c := range d.Doc.List {
					m := acquiresRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					for _, tok := range strings.Split(m[1], ",") {
						if r, err := strconv.Atoi(strings.TrimSpace(tok)); err == nil {
							f.acquires[d.Name.Name] = append(f.acquires[d.Name.Name], r)
						}
					}
				}
			}
			return true
		})
	}
	if len(f.ranks) == 0 && len(f.acquires) == 0 {
		return nil
	}
	return f
}

func rankOf(groups ...*ast.CommentGroup) (int, bool) {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if m := lockrankRe.FindStringSubmatch(c.Text); m != nil {
				r, err := strconv.Atoi(m[1])
				if err == nil {
					return r, true
				}
			}
		}
	}
	return 0, false
}

func run(p *analysis.Pass) error {
	ranks := map[string]int{}
	acquires := map[string][]int{}
	for _, raw := range p.Facts {
		f := raw.(*facts)
		if f.pkg == p.Pkg.Name {
			for k, v := range f.ranks {
				ranks[k] = v
			}
		}
		for k, v := range f.acquires {
			acquires[k] = v
		}
	}
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkBody(p, fd.Body, ranks, acquires)
		}
	}
	return nil
}

// checkBody runs the linear lock scan over one execution sequence, then
// recurses into any function literals it contains — each a fresh
// sequence with fresh lock state, because a closure runs on its own
// schedule.
func checkBody(p *analysis.Pass, body *ast.BlockStmt, ranks map[string]int, acquires map[string][]int) {
	var lits []*ast.BlockStmt
	checkSequence(p, body, ranks, acquires, &lits)
	for _, lit := range lits {
		checkBody(p, lit, ranks, acquires)
	}
}

// held is the linear-scan lock state: selector path → rank (-1 for
// unranked mutexes).
type heldLock struct {
	rank int
	pos  token.Pos
	name string
}

func checkSequence(p *analysis.Pass, body *ast.BlockStmt, ranks map[string]int, acquires map[string][]int, lits *[]*ast.BlockStmt) {
	held := map[string]heldLock{}
	maxHeld := func() (string, heldLock, bool) {
		best, ok := heldLock{rank: -1}, false
		path := ""
		for pth, h := range held {
			if h.rank >= 0 && (!ok || h.rank > best.rank) {
				best, path, ok = h, pth, true
			}
		}
		return path, best, ok
	}
	w := &walker{emit: nil, lits: lits}
	w.emit = func(op lockOp) {
		switch op.kind {
		case opLock:
			if prev, dup := held[op.path]; dup {
				p.Reportf(op.pos, "%s locked again while already held (first lock at line %d): double-acquire deadlock",
					op.path, p.Pkg.Fset.Position(prev.pos).Line)
				return
			}
			rank, ranked := ranks[op.name]
			if !ranked {
				rank = -1
			}
			if ranked {
				if _, top, any := maxHeld(); any && top.rank > rank {
					p.Reportf(op.pos, "acquires %s (rank %d) while holding %s (rank %d); ranked locks must be taken in ascending order (DESIGN.md §9)",
						op.name, rank, top.name, top.rank)
				} else if path, top, any := maxHeld(); any && top.rank == rank && path != op.path {
					p.Reportf(op.pos, "acquires %s (rank %d) while already holding %s at the same rank; same-rank locks may only be multiply acquired via an ascending-index loop",
						op.name, rank, top.name)
				}
				if op.loopDir < 0 {
					p.Reportf(op.pos, "ranked lock %s acquired inside a descending loop; the documented order is ascending partition index (DESIGN.md §9)", op.name)
				}
			}
			held[op.path] = heldLock{rank: rank, pos: op.pos, name: op.name}
		case opUnlock:
			delete(held, op.path)
		case opCallAcquires:
			for _, r := range acquires[op.name] {
				if _, top, any := maxHeld(); any && top.rank > r {
					p.Reportf(op.pos, "calls %s (acquires rank %d) while holding %s (rank %d); ranked locks must be taken in ascending order (DESIGN.md §9)",
						op.name, r, top.name, top.rank)
				} else if _, top, any := maxHeld(); any && top.rank == r {
					p.Reportf(op.pos, "calls %s (acquires rank %d) while already holding %s at that rank: reentrant acquire", op.name, r, top.name)
				}
			}
		}
	}
	w.stmtList(body.List, 0)
}

type lockOpKind int

const (
	opLock lockOpKind = iota
	opUnlock
	opCallAcquires
)

type lockOp struct {
	kind lockOpKind
	path string // full selector path, loop indexes collapsed
	name string // final field name (rank key) or called function name
	pos  token.Pos
	// loopDir is +1/-1 when the op sits inside an ascending/descending
	// for loop, 0 otherwise.
	loopDir int
}

// walker emits lock-relevant operations in source order.  It is
// statement-aware: loop direction is tracked for the ascending-index
// rule, `defer mu.Unlock()` releases at the end of its enclosing block,
// and function literals are collected for separate analysis rather than
// merged into the enclosing sequence.
type walker struct {
	emit func(lockOp)
	lits *[]*ast.BlockStmt
}

// stmtList walks one block's statements sequentially, emitting any
// deferred unlocks when the block ends.
func (w *walker) stmtList(list []ast.Stmt, loopDir int) {
	var deferred []lockOp
	for _, s := range list {
		w.stmt(s, loopDir, &deferred)
	}
	for _, op := range deferred {
		w.emit(op)
	}
}

func (w *walker) stmt(s ast.Stmt, loopDir int, deferred *[]lockOp) {
	switch x := s.(type) {
	case nil:
	case *ast.BlockStmt:
		w.stmtList(x.List, loopDir)
	case *ast.ExprStmt:
		w.expr(x.X, loopDir)
	case *ast.DeferStmt:
		if sel, ok := x.Call.Fun.(*ast.SelectorExpr); ok &&
			(sel.Sel.Name == "Unlock" || sel.Sel.Name == "RUnlock") {
			recv := analysis.SelectorPath(sel.X)
			if recv != "" && mutexName.MatchString(lastComponent(recv)) {
				*deferred = append(*deferred, lockOp{kind: opUnlock, path: recv, name: lastComponent(recv), pos: x.Pos()})
				return
			}
		}
		w.expr(x.Call, loopDir)
	case *ast.GoStmt:
		w.expr(x.Call, loopDir)
	case *ast.IfStmt:
		w.stmt(x.Init, loopDir, deferred)
		w.expr(x.Cond, loopDir)
		w.stmtList(x.Body.List, loopDir)
		w.stmt(x.Else, loopDir, deferred)
	case *ast.ForStmt:
		dir := loopDir
		if post, ok := x.Post.(*ast.IncDecStmt); ok {
			if post.Tok == token.INC {
				dir = 1
			} else {
				dir = -1
			}
		}
		w.stmt(x.Init, loopDir, deferred)
		if x.Cond != nil {
			w.expr(x.Cond, dir)
		}
		w.stmtList(x.Body.List, dir)
		w.stmt(x.Post, dir, deferred)
	case *ast.RangeStmt:
		w.expr(x.X, loopDir)
		w.stmtList(x.Body.List, loopDir)
	case *ast.SwitchStmt:
		w.stmt(x.Init, loopDir, deferred)
		if x.Tag != nil {
			w.expr(x.Tag, loopDir)
		}
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmtList(cc.Body, loopDir)
			}
		}
	case *ast.TypeSwitchStmt:
		w.stmt(x.Init, loopDir, deferred)
		w.stmt(x.Assign, loopDir, deferred)
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmtList(cc.Body, loopDir)
			}
		}
	case *ast.SelectStmt:
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				if cc.Comm != nil {
					w.stmt(cc.Comm, loopDir, deferred)
				}
				w.stmtList(cc.Body, loopDir)
			}
		}
	case *ast.LabeledStmt:
		w.stmt(x.Stmt, loopDir, deferred)
	case *ast.AssignStmt:
		for _, e := range x.Rhs {
			w.expr(e, loopDir)
		}
		for _, e := range x.Lhs {
			w.expr(e, loopDir)
		}
	case *ast.ReturnStmt:
		for _, e := range x.Results {
			w.expr(e, loopDir)
		}
	case *ast.SendStmt:
		w.expr(x.Value, loopDir)
		w.expr(x.Chan, loopDir)
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v, loopDir)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		w.expr(x.X, loopDir)
	}
}

// expr walks an expression, classifying calls and diverting function
// literals to separate analysis.
func (w *walker) expr(e ast.Expr, loopDir int) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			*w.lits = append(*w.lits, x.Body)
			return false
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
				recv := analysis.SelectorPath(sel.X)
				last := lastComponent(recv)
				switch sel.Sel.Name {
				case "Lock", "RLock":
					if recv != "" && mutexName.MatchString(last) {
						w.emit(lockOp{kind: opLock, path: recv, name: last, pos: x.Pos(), loopDir: loopDir})
						return false
					}
				case "Unlock", "RUnlock":
					if recv != "" && mutexName.MatchString(last) {
						w.emit(lockOp{kind: opUnlock, path: recv, name: last, pos: x.Pos()})
						return false
					}
				}
				w.emit(lockOp{kind: opCallAcquires, path: recv, name: sel.Sel.Name, pos: x.Pos(), loopDir: loopDir})
				return true
			}
			if id, ok := x.Fun.(*ast.Ident); ok {
				w.emit(lockOp{kind: opCallAcquires, name: id.Name, pos: x.Pos(), loopDir: loopDir})
			}
			return true
		}
		return true
	})
}

func lastComponent(path string) string {
	if i := strings.LastIndex(path, "."); i >= 0 {
		return path[i+1:]
	}
	return path
}
