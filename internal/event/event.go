// Package event implements the event model of the paper's framework
// (Section 3.1 and Appendix A.1): event descriptors, the six-tuple event
// record, event templates with parameters and wildcards, and the matching
// interpretation mi(E, 𝓔).
//
// Descriptor vocabulary (Section 3.1.1):
//
//	W(X, b)      the database performs the write X ← b (generated)
//	Ws(X, a, b)  an application spontaneously writes X from a to b;
//	             Ws(X, b) is shorthand for Ws(X, *, b)
//	WR(X, b)     the database receives a write request X ← b from the CM
//	RR(X)        the database receives a read request for X from the CM
//	R(X, b)      the CM receives the read response: X had value b
//	N(X, b)      the CM receives a notification of the update X ← b
//	P(p)         a periodic event that occurs every p seconds by definition
//	F            the false event, which never occurs
//
// Deleting an item is modeled as writing null to it, which makes the
// existence predicate E(X) of Section 6.2 expressible over interpretations.
package event

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"cmtk/internal/data"
)

// Op enumerates the event descriptor kinds.
type Op int

// Event operation kinds.
const (
	OpInvalid Op = iota
	OpW          // generated write performed
	OpWs         // spontaneous write performed
	OpWR         // write request received
	OpRR         // read request received
	OpR          // read response received
	OpN          // notification received
	OpP          // periodic event
	OpF          // the false event
)

var opNames = map[Op]string{
	OpW:  "W",
	OpWs: "Ws",
	OpWR: "WR",
	OpRR: "RR",
	OpR:  "R",
	OpN:  "N",
	OpP:  "P",
	OpF:  "F",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// OpFromName parses an operation name; it returns OpInvalid for unknown
// names.
func OpFromName(s string) Op {
	for op, name := range opNames {
		if name == s {
			return op
		}
	}
	return OpInvalid
}

// HasValue reports whether the op carries a value slot.
func (o Op) HasValue() bool {
	switch o {
	case OpW, OpWs, OpWR, OpR, OpN:
		return true
	default:
		return false
	}
}

// HasItem reports whether the op names a data item.
func (o Op) HasItem() bool { return o != OpP && o != OpF && o != OpInvalid }

// IsWrite reports whether the op changes the system state (Appendix A.2
// property 2): only performed writes do; requests and notifications do not.
func (o Op) IsWrite() bool { return o == OpW || o == OpWs }

// Desc is a ground event descriptor: an operation applied to concrete
// arguments.  Unused slots hold zero values.
type Desc struct {
	Op     Op
	Item   data.ItemName // for item-bearing ops
	OldVal data.Value    // only for Ws
	Val    data.Value    // for value-bearing ops
	Period time.Duration // only for P
}

// W builds a generated-write descriptor W(item, v).
func W(item data.ItemName, v data.Value) Desc { return Desc{Op: OpW, Item: item, Val: v} }

// Ws builds a spontaneous-write descriptor Ws(item, old, v).
func Ws(item data.ItemName, old, v data.Value) Desc {
	return Desc{Op: OpWs, Item: item, OldVal: old, Val: v}
}

// WR builds a write-request descriptor WR(item, v).
func WR(item data.ItemName, v data.Value) Desc { return Desc{Op: OpWR, Item: item, Val: v} }

// R builds a read-response descriptor R(item, v).
func R(item data.ItemName, v data.Value) Desc { return Desc{Op: OpR, Item: item, Val: v} }

// N builds a notification descriptor N(item, v).
func N(item data.ItemName, v data.Value) Desc { return Desc{Op: OpN, Item: item, Val: v} }

// P builds a periodic descriptor P(period).
func P(period time.Duration) Desc { return Desc{Op: OpP, Period: period} }

// AppendTo appends the descriptor in the paper's syntax, e.g.
// N(salary1("e7"), 100), to dst.  It is the one writer of that syntax.
func (d Desc) AppendTo(dst []byte) []byte {
	switch d.Op {
	case OpF:
		return append(dst, 'F')
	case OpP:
		dst = append(dst, "P("...)
		dst = strconv.AppendFloat(dst, d.Period.Seconds(), 'g', -1, 64)
		return append(dst, ')')
	}
	dst = append(dst, d.Op.String()...)
	dst = d.Item.AppendKey(append(dst, '('))
	if d.Op == OpRR {
		return append(dst, ')')
	}
	if d.Op == OpWs && !d.OldVal.IsNull() {
		dst = d.OldVal.AppendLiteral(append(dst, ", "...))
	}
	dst = d.Val.AppendLiteral(append(dst, ", "...))
	return append(dst, ')')
}

// String renders the descriptor in the paper's syntax (see AppendTo).
func (d Desc) String() string {
	var buf [64]byte
	return string(d.AppendTo(buf[:0]))
}

// Event is the six-tuple of Appendix A.1: (time, desc, old, new, rule,
// trigger), extended with the site at which the event occurs ("each event
// has a unique site") and a global sequence number used for deterministic
// ordering and tracing.
//
// The old and new interpretations are views, read through Old and New:
// a trace that stores state as per-item version timelines installs a
// StateSource and the views are reconstructed on demand, so appending an
// event costs O(1) instead of cloning the whole interpretation.  Events
// that never joined such a trace (stub triggers, hand-built tests) carry
// eager interpretations set with SetStates.
type Event struct {
	Time time.Time
	Seq  uint64
	Site string
	// Host is the shell that recorded the event.  In static deployments a
	// site lives on exactly one shell, so Host adds no information; in a
	// sharded fleet one site spans many shells and Host identifies which
	// shard executed — the checker's in-order property (Appendix A.2
	// property 7) holds per (site, host) link, the granularity at which
	// the mesh actually guarantees FIFO delivery.
	Host    string
	Desc    Desc
	Rule    string // ID of the rule whose firing generated this event; "" if spontaneous
	Trigger *Event // event that caused Rule to fire; nil if spontaneous

	// state views: eager interpretations win over the lazy source, so a
	// test can override what a trace recorded.
	old, new data.Interpretation
	src      StateSource
}

// StateSource reconstructs the interpretations around an event from a
// versioned store, keyed by the event's sequence number.  The Value forms
// are point reads: one item of the same interpretation, without building
// the rest of it.
type StateSource interface {
	// StateBefore returns the interpretation in force before event seq.
	StateBefore(seq uint64) data.Interpretation
	// StateAfter returns the interpretation in force after event seq.
	StateAfter(seq uint64) data.Interpretation
	// ValueBefore returns StateBefore(seq).Get(item).
	ValueBefore(seq uint64, item data.ItemName) data.Value
	// ValueAfter returns StateAfter(seq).Get(item).
	ValueAfter(seq uint64, item data.ItemName) data.Value
}

// Old returns the interpretation in force when the event occurred.  The
// result must be treated as read-only when a StateSource is not installed
// (it may alias state shared with neighbouring events).
func (e *Event) Old() data.Interpretation {
	if e.old != nil || e.src == nil {
		return e.old
	}
	return e.src.StateBefore(e.Seq)
}

// New returns the interpretation the event left in force (property 2 of
// Appendix A.2).  Read-only under the same rule as Old.
func (e *Event) New() data.Interpretation {
	if e.new != nil || e.src == nil {
		return e.new
	}
	return e.src.StateAfter(e.Seq)
}

// OldValue returns Old().Get(item) without materializing the interpretation:
// an eager old view answers from its map, a source-backed one reads the
// item's own timeline.
func (e *Event) OldValue(item data.ItemName) data.Value {
	if e.old != nil || e.src == nil {
		return e.old.Get(item)
	}
	return e.src.ValueBefore(e.Seq, item)
}

// NewValue returns New().Get(item), as OldValue does for Old.
func (e *Event) NewValue(item data.ItemName) data.Value {
	if e.new != nil || e.src == nil {
		return e.new.Get(item)
	}
	return e.src.ValueAfter(e.Seq, item)
}

// SetStates installs eager old/new interpretations, overriding any
// StateSource (used by compaction folds, stub triggers and tests).
func (e *Event) SetStates(old, new data.Interpretation) {
	e.old, e.new = old, new
}

// SetStateSource installs the lazy view source; the trace that assigned
// the event's sequence number calls this during Append.
func (e *Event) SetStateSource(src StateSource) { e.src = src }

// HasEagerStates reports whether eager interpretations are installed, in
// which case Old/New answer from them instead of the StateSource.
// Sequential readers (the trace checker, guarantee walkers) use this to
// replay state incrementally for source-backed events and pay the full
// materialization only for overridden ones.
func (e *Event) HasEagerStates() bool { return e.old != nil || e.new != nil }

// String renders a compact single-line form for logs and test failures.
func (e *Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s @%s #%d] %s", e.Site, e.Time.Format("15:04:05.000"), e.Seq, e.Desc)
	if e.Rule != "" {
		fmt.Fprintf(&b, " by %s", e.Rule)
	}
	return b.String()
}

// Bindings maps parameter names to the values a template match assigned
// them; it is the matching interpretation mi(E, 𝓔) of Appendix A.1.
type Bindings map[string]data.Value

// Clone returns a copy of the bindings.
func (b Bindings) Clone() Bindings {
	out := make(Bindings, len(b))
	for k, v := range b {
		out[k] = v
	}
	return out
}

// bind records name=v, failing when name is already bound to a different
// value (a template like W(X, b, b) requires both slots equal).
func (b Bindings) bind(name string, v data.Value) bool {
	if old, ok := b[name]; ok {
		return old.Equal(v)
	}
	b[name] = v
	return true
}

// Term is one argument slot of a template: a literal value, a parameter to
// bind, or a wildcard.
type Term struct {
	kind  termKind
	lit   data.Value
	param string
}

type termKind int

const (
	termLit termKind = iota
	termParam
	termWild
)

// Lit returns a literal term.
func Lit(v data.Value) Term { return Term{kind: termLit, lit: v} }

// Param returns a parameter term with the given name.
func Param(name string) Term { return Term{kind: termParam, param: name} }

// Wild returns the wildcard term "*".
func Wild() Term { return Term{kind: termWild} }

// IsParam reports whether the term is a parameter, returning its name.
func (t Term) IsParam() (string, bool) { return t.param, t.kind == termParam }

// IsWild reports whether the term is the wildcard.
func (t Term) IsWild() bool { return t.kind == termWild }

// String renders the term in template syntax.
func (t Term) String() string {
	switch t.kind {
	case termLit:
		return t.lit.String()
	case termParam:
		return t.param
	default:
		return "*"
	}
}

// match attempts to match the term against a concrete value, extending b.
func (t Term) match(v data.Value, b Bindings) bool {
	switch t.kind {
	case termWild:
		return true
	case termLit:
		return t.lit.Equal(v)
	default:
		return b.bind(t.param, v)
	}
}

// subst instantiates the term under bindings.  Wildcards and unbound
// parameters are errors: a rule's RHS must be fully determined by its LHS
// match (Appendix A.1: RHS-only variables are existentially quantified and
// our implementation requires them to be absent from generated events).
func (t Term) subst(b Bindings) (data.Value, error) {
	switch t.kind {
	case termLit:
		return t.lit, nil
	case termWild:
		return data.NullValue, fmt.Errorf("event: wildcard in substitution position")
	default:
		v, ok := b[t.param]
		if !ok {
			return data.NullValue, fmt.Errorf("event: unbound parameter %q", t.param)
		}
		return v, nil
	}
}

// ItemTemplate is a possibly-parameterized data item name, e.g.
// salary1(n): a literal base with term arguments.
type ItemTemplate struct {
	Base string
	Args []Term
}

// ItemT builds an item template.
func ItemT(base string, args ...Term) ItemTemplate { return ItemTemplate{Base: base, Args: args} }

// String renders salary1(n) style.
func (it ItemTemplate) String() string {
	if len(it.Args) == 0 {
		return it.Base
	}
	parts := make([]string, len(it.Args))
	for i, a := range it.Args {
		parts[i] = a.String()
	}
	return it.Base + "(" + strings.Join(parts, ", ") + ")"
}

// Match attempts to match the template against a concrete item name.
func (it ItemTemplate) Match(n data.ItemName, b Bindings) bool {
	if it.Base != n.Base || len(it.Args) != len(n.Args) {
		return false
	}
	for i, a := range it.Args {
		if !a.match(n.Args[i], b) {
			return false
		}
	}
	return true
}

// Subst instantiates the template into a concrete item name.
func (it ItemTemplate) Subst(b Bindings) (data.ItemName, error) {
	args := make([]data.Value, len(it.Args))
	for i, a := range it.Args {
		v, err := a.subst(b)
		if err != nil {
			return data.ItemName{}, fmt.Errorf("event: item %s: %w", it.Base, err)
		}
		args[i] = v
	}
	return data.ItemName{Base: it.Base, Args: args}, nil
}

// Params returns the parameter names appearing in the template.
func (it ItemTemplate) Params() []string {
	var ps []string
	for _, a := range it.Args {
		if n, ok := a.IsParam(); ok {
			ps = append(ps, n)
		}
	}
	return ps
}

// Template is an event template 𝓔: an operation with term slots.  It
// represents the set of ground descriptors obtained by substituting values
// for parameters and wildcards.
type Template struct {
	Op     Op
	Item   ItemTemplate  // for item-bearing ops
	OldT   Term          // only for Ws; Lit(null) when the two-argument shorthand was used
	ValT   Term          // for value-bearing ops
	Period time.Duration // only for P; periods are always literal
}

// TW etc. build templates for each op.
func TW(item ItemTemplate, v Term) Template  { return Template{Op: OpW, Item: item, ValT: v} }
func TWR(item ItemTemplate, v Term) Template { return Template{Op: OpWR, Item: item, ValT: v} }
func TR(item ItemTemplate, v Term) Template  { return Template{Op: OpR, Item: item, ValT: v} }
func TN(item ItemTemplate, v Term) Template  { return Template{Op: OpN, Item: item, ValT: v} }
func TRR(item ItemTemplate) Template         { return Template{Op: OpRR, Item: item} }
func TP(p time.Duration) Template            { return Template{Op: OpP, Period: p} }
func TF() Template                           { return Template{Op: OpF} }

// TWs2 builds the two-argument shorthand Ws(item, new) = Ws(item, *, new).
func TWs2(item ItemTemplate, v Term) Template {
	return Template{Op: OpWs, Item: item, OldT: Wild(), ValT: v}
}

// String renders the template in the paper's syntax.
func (t Template) String() string {
	switch t.Op {
	case OpF:
		return "F"
	case OpP:
		return fmt.Sprintf("P(%g)", t.Period.Seconds())
	case OpRR:
		return fmt.Sprintf("RR(%s)", t.Item)
	case OpWs:
		if t.OldT.IsWild() {
			return fmt.Sprintf("Ws(%s, %s)", t.Item, t.ValT)
		}
		return fmt.Sprintf("Ws(%s, %s, %s)", t.Item, t.OldT, t.ValT)
	default:
		return fmt.Sprintf("%s(%s, %s)", t.Op, t.Item, t.ValT)
	}
}

// Match attempts to match a ground descriptor against the template,
// returning the matching interpretation mi(E, 𝓔).  The false template F
// matches nothing by definition.
func (t Template) Match(d Desc) (Bindings, bool) {
	// Nearly every (template, descriptor) pair a scan tries differs in op
	// or item shape: reject those before allocating the bindings.
	if t.Op == OpF || t.Op != d.Op {
		return nil, false
	}
	if t.Op.HasItem() && (t.Item.Base != d.Item.Base || len(t.Item.Args) != len(d.Item.Args)) {
		return nil, false
	}
	b := Bindings{}
	if !t.MatchInto(d, b) {
		return nil, false
	}
	return b, true
}

// MatchInto matches against d extending existing bindings b; on failure b
// may be partially extended and should be discarded.
func (t Template) MatchInto(d Desc, b Bindings) bool {
	if t.Op == OpF || t.Op != d.Op {
		return false
	}
	switch t.Op {
	case OpP:
		return t.Period == d.Period
	case OpRR:
		return t.Item.Match(d.Item, b)
	case OpWs:
		return t.Item.Match(d.Item, b) && t.OldT.match(d.OldVal, b) && t.ValT.match(d.Val, b)
	default:
		return t.Item.Match(d.Item, b) && t.ValT.match(d.Val, b)
	}
}

// Subst instantiates the template into a ground descriptor under bindings.
func (t Template) Subst(b Bindings) (Desc, error) {
	switch t.Op {
	case OpF:
		return Desc{}, fmt.Errorf("event: cannot instantiate the false template")
	case OpP:
		return P(t.Period), nil
	}
	item, err := t.Item.Subst(b)
	if err != nil {
		return Desc{}, err
	}
	d := Desc{Op: t.Op, Item: item}
	if t.Op.HasValue() {
		v, err := t.ValT.subst(b)
		if err != nil {
			return Desc{}, err
		}
		d.Val = v
	}
	if t.Op == OpWs && !t.OldT.IsWild() {
		old, err := t.OldT.subst(b)
		if err != nil {
			return Desc{}, err
		}
		d.OldVal = old
	}
	return d, nil
}

// Params returns the parameter names appearing anywhere in the template.
func (t Template) Params() []string {
	var ps []string
	if t.Op.HasItem() {
		ps = append(ps, t.Item.Params()...)
	}
	if t.Op == OpWs {
		if n, ok := t.OldT.IsParam(); ok {
			ps = append(ps, n)
		}
	}
	if t.Op.HasValue() {
		if n, ok := t.ValT.IsParam(); ok {
			ps = append(ps, n)
		}
	}
	return ps
}
