// Package translator implements the CM-Translators of Figure 2: one
// adapter per Raw Information Source kind, each presenting the uniform
// CM-Interface (package cmi) over that source's native interface, and
// each configured purely from a CM-RID (package rid).
//
// Porting to a new source kind means writing one adapter here; retargeting
// an existing kind to a different deployment (Sybase payroll → Oracle
// inventory) means editing only the CM-RID — the "less than a page"
// property of Section 4.3.
package translator

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"cmtk/internal/cmi"
	"cmtk/internal/data"
	"cmtk/internal/event"
	"cmtk/internal/obs"
	"cmtk/internal/ris"
	"cmtk/internal/rule"
	"cmtk/internal/vclock"
)

// failureHub implements cmi.Interface's failure reporting for all
// translator kinds, and carries their shared obs instrumentation: every
// CM-Interface operation and every classified failure lands in the
// process-wide obs.Default registry, labelled by site.
type failureHub struct {
	site  string
	clock vclock.Clock
	mu    sync.Mutex
	fns   []func(cmi.Failure)

	// operation counters by CM-Interface entry point
	mRead, mWrite, mNotify, mList *obs.Counter
	// failure counters by Section 5 kind
	mFailMetric, mFailLogical *obs.Counter
}

func newFailureHub(site string, clock vclock.Clock) failureHub {
	if clock == nil {
		clock = vclock.Real{}
	}
	ops := obs.Default.Counter("cmtk_translator_ops_total",
		"CM-Interface operations served by a translator, by site and entry point.",
		"site", "op")
	fails := obs.Default.Counter("cmtk_translator_failures_total",
		"Interface failures classified by a translator, by Section 5 kind.",
		"site", "kind")
	return failureHub{
		site: site, clock: clock,
		mRead:        ops.With(site, "read"),
		mWrite:       ops.With(site, "write"),
		mNotify:      ops.With(site, "notify"),
		mList:        ops.With(site, "list"),
		mFailMetric:  fails.With(site, "metric"),
		mFailLogical: fails.With(site, "logical"),
	}
}

// countOp bumps the operation counter for a CM-Interface entry point.
// Translators call it on entry to Read/Write/Subscribe/List.
func (h *failureHub) countOp(op string) {
	switch op {
	case "read":
		h.mRead.Inc()
	case "write":
		h.mWrite.Inc()
	case "notify":
		h.mNotify.Inc()
	case "list":
		h.mList.Inc()
	}
}

// OnFailure implements cmi.Interface.
func (h *failureHub) OnFailure(fn func(cmi.Failure)) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.fns = append(h.fns, fn)
}

// report classifies err and delivers it to the failure callbacks.  It
// returns err for convenient chaining.
func (h *failureHub) report(op string, err error) error {
	if err == nil {
		return nil
	}
	f := cmi.Failure{
		Kind: cmi.Classify(err),
		Site: h.site,
		When: h.clock.Now(),
		Op:   op,
		Err:  err,
	}
	if f.Kind == cmi.FailMetric {
		h.mFailMetric.Inc()
	} else {
		h.mFailLogical.Inc()
	}
	h.mu.Lock()
	fns := append([]func(cmi.Failure){}, h.fns...)
	h.mu.Unlock()
	for _, fn := range fns {
		fn(f)
	}
	return err
}

// convert parses a raw native string into a typed value per the RID
// binding's declared type.
func convert(raw, typ string) (data.Value, error) {
	switch typ {
	case "int":
		i, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return data.NullValue, fmt.Errorf("translator: %q is not an int", raw)
		}
		return data.NewInt(i), nil
	case "float":
		f, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return data.NullValue, fmt.Errorf("translator: %q is not a float", raw)
		}
		return data.NewFloat(f), nil
	case "bool":
		b, err := strconv.ParseBool(raw)
		if err != nil {
			return data.NullValue, fmt.Errorf("translator: %q is not a bool", raw)
		}
		return data.NewBool(b), nil
	default: // string
		return data.NewString(raw), nil
	}
}

// render turns a typed value into the raw native string form.
func render(v data.Value) string {
	switch v.Kind() {
	case data.String:
		return v.Str()
	case data.Null:
		return ""
	default:
		return v.String()
	}
}

// keyString renders an item's first argument as the native key string
// ($n); items in the paper's scenarios are keyed by a single argument.
func keyString(item data.ItemName) (string, error) {
	if len(item.Args) == 0 {
		return "", fmt.Errorf("translator: item %s has no key argument", item)
	}
	if len(item.Args) > 1 {
		return "", fmt.Errorf("translator: item %s has %d key arguments; bindings support one", item, len(item.Args))
	}
	return render(item.Args[0]), nil
}

// notifyCondPasses evaluates a conditional-notify expression with a bound
// to the old value and b to the new (Section 3.1.1's Ws(X, a, b) ∧ C → N
// interface).  A nil condition always passes; creations and deletions
// (null old or new) always pass, since the paper's filters concern value
// changes.  Evaluation errors fail open: a broken filter must not
// silently hide updates.
func notifyCondPasses(cond rule.Expr, old, new data.Value) bool {
	if cond == nil || old.IsNull() || new.IsNull() {
		return true
	}
	env := condEnv{old: old, new: new}
	ok, err := rule.EvalBool(cond, env)
	if err != nil {
		return true
	}
	return ok
}

type condEnv struct{ old, new data.Value }

func (e condEnv) Param(name string) (data.Value, bool) {
	switch name {
	case "a":
		return e.old, true
	case "b":
		return e.new, true
	default:
		return data.NullValue, false
	}
}

func (e condEnv) Item(data.ItemName) (data.Value, bool, error) {
	return data.NullValue, false, fmt.Errorf("translator: notifycond may only reference a and b")
}

// CapsFromStatements derives the capability set a site offers for an item
// base from its declared interface statements — the paper's own notion of
// "what can the CM do here".  A WR→W statement implies write, RR→R read,
// Ws→N notify, P∧cond→N periodic notify (still notify from the shell's
// viewpoint).
func CapsFromStatements(stmts []rule.Rule, base string) ris.Capability {
	var caps ris.Capability
	for _, st := range stmts {
		if !mentionsBase(st, base) {
			continue
		}
		if len(st.Steps) != 1 {
			continue
		}
		eff := st.Steps[0].Eff
		switch {
		case st.LHS.Op == event.OpWR && eff.Op == event.OpW:
			caps |= ris.CapWrite | ris.CapDelete
		case st.LHS.Op == event.OpRR && eff.Op == event.OpR:
			caps |= ris.CapRead
		case st.LHS.Op == event.OpWs && eff.Op == event.OpN:
			caps |= ris.CapNotify
		case st.LHS.Op == event.OpP && eff.Op == event.OpN:
			caps |= ris.CapNotify
		}
	}
	return caps
}

// NotifyBases lists, in sorted order, the item bases a set of interface
// statements can push spontaneous-change notifications for (Ws → N or
// P → N statements).  A fleet ingress subscribes to exactly these bases
// and routes each callback to the base's current owner shell.
func NotifyBases(stmts []rule.Rule) []string {
	set := map[string]bool{}
	for _, st := range stmts {
		if len(st.Steps) != 1 {
			continue
		}
		eff := st.Steps[0].Eff
		if eff.Op != event.OpN {
			continue
		}
		if st.LHS.Op == event.OpWs && st.LHS.Op.HasItem() {
			set[st.LHS.Item.Base] = true
		} else if st.LHS.Op == event.OpP && eff.Op.HasItem() {
			set[eff.Item.Base] = true
		}
	}
	out := make([]string, 0, len(set))
	for b := range set {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}

func mentionsBase(r rule.Rule, base string) bool {
	if r.LHS.Op.HasItem() && r.LHS.Item.Base == base {
		return true
	}
	for _, s := range r.Steps {
		if s.Eff.Op.HasItem() && s.Eff.Item.Base == base {
			return true
		}
	}
	return false
}
