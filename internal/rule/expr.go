// Package rule implements the paper's rule language (Section 3 and
// Appendix A.1): conditions, interface statements, strategy rules, and a
// parser for their textual form used by Strategy Specification and CM-RID
// files.
//
// The general rule form is
//
//	𝓔0 ∧ C0 →δ C1?𝓔1, …, Ck?𝓔k
//
// written in our concrete syntax as
//
//	id: N(salary1(n), b) && (b > 0) ->5s (Cx != b)? WR(salary2(n), b), W(Cx, b)
//
// Interface statements (Section 3.1) are rules with a single unconditional
// right-hand step.  Following the paper's convention, identifiers starting
// with a lower-case letter are rule parameters and identifiers starting
// with an upper-case letter are data items; parameterized item families
// such as salary1(n) are written in call form and are items regardless of
// case.
package rule

import (
	"fmt"
	"strings"

	"cmtk/internal/data"
	"cmtk/internal/event"
)

// Env supplies the two kinds of names a condition may mention: parameters
// bound by the LHS match, and data items local to the evaluating site
// (database items or CM-private items).
type Env interface {
	// Param returns the binding of a rule parameter.
	Param(name string) (data.Value, bool)
	// Item returns the current value of a local data item; exists reports
	// whether the item is present (the E(X) predicate of Section 6.2).
	Item(n data.ItemName) (v data.Value, exists bool, err error)
}

// MapEnv is an Env backed by plain maps, for tests and simple evaluation.
type MapEnv struct {
	Params event.Bindings
	Items  data.Interpretation
}

// Param implements Env.
func (m MapEnv) Param(name string) (data.Value, bool) {
	v, ok := m.Params[name]
	return v, ok
}

// Item implements Env.
func (m MapEnv) Item(n data.ItemName) (data.Value, bool, error) {
	v := m.Items.Get(n)
	return v, !v.IsNull(), nil
}

// Expr is a condition expression node.
type Expr interface {
	// Eval evaluates the expression under env.
	Eval(env Env) (data.Value, error)
	// String renders the expression in concrete syntax.
	String() string
}

// Lit is a literal value.
type Lit struct{ V data.Value }

// Eval implements Expr.
func (l Lit) Eval(Env) (data.Value, error) { return l.V, nil }
func (l Lit) String() string               { return l.V.String() }

// ParamRef references a rule parameter (lower-case identifier).
type ParamRef struct{ Name string }

// Eval implements Expr.
func (p ParamRef) Eval(env Env) (data.Value, error) {
	v, ok := env.Param(p.Name)
	if !ok {
		return data.NullValue, fmt.Errorf("rule: unbound parameter %q", p.Name)
	}
	return v, nil
}
func (p ParamRef) String() string { return p.Name }

// ItemRef references a local data item, possibly parameterized:
// Cx, X, salary1(n).  Argument expressions are evaluated first.
type ItemRef struct {
	Base string
	Args []Expr
}

// Eval implements Expr.  Reading an absent item yields null (the paper's
// "may take any value" is approximated as null, which fails comparisons).
func (r ItemRef) Eval(env Env) (data.Value, error) {
	n, err := r.Resolve(env)
	if err != nil {
		return data.NullValue, err
	}
	v, _, err := env.Item(n)
	if err != nil {
		return data.NullValue, fmt.Errorf("rule: reading %s: %w", n, err)
	}
	return v, nil
}

// Resolve evaluates the argument expressions to produce the concrete item
// name.
func (r ItemRef) Resolve(env Env) (data.ItemName, error) {
	args := make([]data.Value, len(r.Args))
	for i, a := range r.Args {
		v, err := a.Eval(env)
		if err != nil {
			return data.ItemName{}, err
		}
		args[i] = v
	}
	return data.ItemName{Base: r.Base, Args: args}, nil
}

func (r ItemRef) String() string {
	if len(r.Args) == 0 {
		return r.Base
	}
	parts := make([]string, len(r.Args))
	for i, a := range r.Args {
		parts[i] = a.String()
	}
	return r.Base + "(" + strings.Join(parts, ", ") + ")"
}

// Unary is !e or -e.
type Unary struct {
	Op byte // '!' or '-'
	X  Expr
}

// Eval implements Expr.
func (u Unary) Eval(env Env) (data.Value, error) {
	v, err := u.X.Eval(env)
	if err != nil {
		return data.NullValue, err
	}
	switch u.Op {
	case '!':
		return data.NewBool(!v.Truthy()), nil
	case '-':
		return data.Arith('-', data.NewInt(0), v)
	default:
		return data.NullValue, fmt.Errorf("rule: unknown unary operator %q", string(u.Op))
	}
}

func (u Unary) String() string { return string(u.Op) + u.X.String() }

// Binary is a binary operation.  Op is one of
// "+", "-", "*", "/", "=", "!=", "<", "<=", ">", ">=", "&&", "||".
type Binary struct {
	Op   string
	L, R Expr
}

// Eval implements Expr.  Comparisons between incomparable values evaluate
// to false rather than erroring: a copy constraint between a string store
// and a numeric store is simply "not equal", not broken.
func (b Binary) Eval(env Env) (data.Value, error) {
	// Short-circuit logicals.
	switch b.Op {
	case "&&":
		l, err := b.L.Eval(env)
		if err != nil {
			return data.NullValue, err
		}
		if !l.Truthy() {
			return data.NewBool(false), nil
		}
		r, err := b.R.Eval(env)
		if err != nil {
			return data.NullValue, err
		}
		return data.NewBool(r.Truthy()), nil
	case "||":
		l, err := b.L.Eval(env)
		if err != nil {
			return data.NullValue, err
		}
		if l.Truthy() {
			return data.NewBool(true), nil
		}
		r, err := b.R.Eval(env)
		if err != nil {
			return data.NullValue, err
		}
		return data.NewBool(r.Truthy()), nil
	}
	l, err := b.L.Eval(env)
	if err != nil {
		return data.NullValue, err
	}
	r, err := b.R.Eval(env)
	if err != nil {
		return data.NullValue, err
	}
	switch b.Op {
	case "+", "-", "*", "/":
		return data.Arith(b.Op[0], l, r)
	case "=":
		return data.NewBool(l.Equal(r)), nil
	case "!=":
		return data.NewBool(!l.Equal(r)), nil
	case "<", "<=", ">", ">=":
		c, ok := l.Compare(r)
		if !ok {
			return data.NewBool(false), nil
		}
		switch b.Op {
		case "<":
			return data.NewBool(c < 0), nil
		case "<=":
			return data.NewBool(c <= 0), nil
		case ">":
			return data.NewBool(c > 0), nil
		default:
			return data.NewBool(c >= 0), nil
		}
	default:
		return data.NullValue, fmt.Errorf("rule: unknown operator %q", b.Op)
	}
}

func (b Binary) String() string {
	return "(" + b.L.String() + " " + b.Op + " " + b.R.String() + ")"
}

// NowEnv is implemented by environments that can supply the current time
// (encoded per vclock.TimeValue) for the now() builtin and the reserved
// parameter "now".
type NowEnv interface {
	NowValue() (data.Value, bool)
}

// Call is a builtin function application: abs(e), exists(item) or now().
type Call struct {
	Fn   string
	Args []Expr
}

// Eval implements Expr.
func (c Call) Eval(env Env) (data.Value, error) {
	switch c.Fn {
	case "abs":
		if len(c.Args) != 1 {
			return data.NullValue, fmt.Errorf("rule: abs takes 1 argument, got %d", len(c.Args))
		}
		v, err := c.Args[0].Eval(env)
		if err != nil {
			return data.NullValue, err
		}
		return data.Abs(v)
	case "now":
		if len(c.Args) != 0 {
			return data.NullValue, fmt.Errorf("rule: now takes no arguments")
		}
		ne, ok := env.(NowEnv)
		if !ok {
			return data.NullValue, fmt.Errorf("rule: environment cannot supply the current time")
		}
		v, ok := ne.NowValue()
		if !ok {
			return data.NullValue, fmt.Errorf("rule: environment cannot supply the current time")
		}
		return v, nil
	case "exists":
		if len(c.Args) != 1 {
			return data.NullValue, fmt.Errorf("rule: exists takes 1 argument, got %d", len(c.Args))
		}
		ref, ok := c.Args[0].(ItemRef)
		if !ok {
			return data.NullValue, fmt.Errorf("rule: exists argument must be a data item, got %s", c.Args[0])
		}
		n, err := ref.Resolve(env)
		if err != nil {
			return data.NullValue, err
		}
		_, exists, err := env.Item(n)
		if err != nil {
			return data.NullValue, fmt.Errorf("rule: exists(%s): %w", n, err)
		}
		return data.NewBool(exists), nil
	default:
		return data.NullValue, fmt.Errorf("rule: unknown function %q", c.Fn)
	}
}

func (c Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return c.Fn + "(" + strings.Join(parts, ", ") + ")"
}

// EvalBool evaluates e as a condition; a nil expression is vacuously true
// (the paper permits omitting conditions).
func EvalBool(e Expr, env Env) (bool, error) {
	if e == nil {
		return true, nil
	}
	v, err := e.Eval(env)
	if err != nil {
		return false, err
	}
	return v.Truthy(), nil
}

// ExprParams collects the parameter names referenced anywhere in e.
func ExprParams(e Expr) []string {
	seen := map[string]bool{}
	var walk func(Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case nil:
		case Lit:
		case ParamRef:
			seen[x.Name] = true
		case ItemRef:
			for _, a := range x.Args {
				walk(a)
			}
		case Unary:
			walk(x.X)
		case Binary:
			walk(x.L)
			walk(x.R)
		case Call:
			for _, a := range x.Args {
				walk(a)
			}
		}
	}
	walk(e)
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	return out
}

// ExprItems collects the item base names referenced anywhere in e.
func ExprItems(e Expr) []string {
	seen := map[string]bool{}
	var walk func(Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case nil:
		case Lit, ParamRef:
		case ItemRef:
			seen[x.Base] = true
			for _, a := range x.Args {
				walk(a)
			}
		case Unary:
			walk(x.X)
		case Binary:
			walk(x.L)
			walk(x.R)
		case Call:
			for _, a := range x.Args {
				walk(a)
			}
		}
	}
	walk(e)
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	return out
}

// CondBinders returns the parameters that a left-hand-side condition can
// bind through top-level equality conjuncts, as in the paper's Read
// interface RR(X) ∧ (X = b) →ε R(X, b): the conjunct (X = b) binds b to
// the current value of X.  A parameter is a binder when it appears alone
// on one side of an "=" conjunct.
func CondBinders(e Expr) []string {
	var out []string
	var walk func(Expr)
	walk = func(e Expr) {
		b, ok := e.(Binary)
		if !ok {
			return
		}
		switch b.Op {
		case "&&":
			walk(b.L)
			walk(b.R)
		case "=":
			if p, ok := b.L.(ParamRef); ok {
				out = append(out, p.Name)
			}
			if p, ok := b.R.(ParamRef); ok {
				out = append(out, p.Name)
			}
		}
	}
	walk(e)
	return out
}

// EvalCondBinding evaluates an LHS condition with binding semantics: when
// a top-level "=" conjunct has an unbound parameter on one side, the other
// side is evaluated and the parameter is bound to its value in b (and the
// conjunct is then true).  All other subexpressions evaluate normally
// under env, which must expose b as its parameter source.
func EvalCondBinding(e Expr, env Env, b event.Bindings) (bool, error) {
	if e == nil {
		return true, nil
	}
	bin, ok := e.(Binary)
	if !ok {
		return EvalBool(e, env)
	}
	switch bin.Op {
	case "&&":
		l, err := EvalCondBinding(bin.L, env, b)
		if err != nil || !l {
			return false, err
		}
		return EvalCondBinding(bin.R, env, b)
	case "=":
		if p, ok := bin.L.(ParamRef); ok {
			if _, bound := env.Param(p.Name); !bound {
				v, err := bin.R.Eval(env)
				if err != nil {
					return false, err
				}
				b[p.Name] = v
				return true, nil
			}
		}
		if p, ok := bin.R.(ParamRef); ok {
			if _, bound := env.Param(p.Name); !bound {
				v, err := bin.L.Eval(env)
				if err != nil {
					return false, err
				}
				b[p.Name] = v
				return true, nil
			}
		}
	}
	return EvalBool(e, env)
}
