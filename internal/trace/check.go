package trace

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/event"
	"cmtk/internal/rule"
)

// Checker validates a trace against the seven properties of Appendix A.2.
// Rules must contain every rule (interface statements and strategy rules)
// that was active during the execution, keyed by rule ID.
type Checker struct {
	Rules map[string]rule.Rule
}

// NewChecker builds a checker from a list of rules.
func NewChecker(rules []rule.Rule) *Checker {
	m := make(map[string]rule.Rule, len(rules))
	for _, r := range rules {
		m[r.ID] = r
	}
	return &Checker{Rules: m}
}

// env adapts bindings plus a point read of the state to rule.Env for
// condition evaluation.  read is a method value — Event.OldValue,
// Event.NewValue — so a condition costs a lookup per item it mentions
// instead of an interpretation of every item.
type env struct {
	params event.Bindings
	read   func(data.ItemName) data.Value
}

func (e env) Param(name string) (data.Value, bool) {
	v, ok := e.params[name]
	return v, ok
}

func (e env) Item(n data.ItemName) (data.Value, bool, error) {
	v := e.read(n)
	return v, !v.IsNull(), nil
}

// Check validates the trace and returns all violations found (nil when the
// execution is valid).  Obligations whose time window extends past the end
// of the trace are treated as still pending and not reported.  All four
// phases work on one snapshot of the event list, so a pass over a live
// trace judges one prefix, and violations come out in a fixed order.
func (c *Checker) Check(t *Trace) []Violation {
	events := t.Events()
	var out []Violation
	out = append(out, c.checkOrderAndChaining(t, events)...)
	out = append(out, c.checkProvenance(events)...)
	out = append(out, c.checkObligations(t, events)...)
	out = append(out, c.checkInOrder(events)...)
	return out
}

// sortedRules lists the rules in ID order: ranging over the map directly
// would report the same violations in a different order on every pass.
func (c *Checker) sortedRules() []rule.Rule {
	ids := make([]string, 0, len(c.Rules))
	for id := range c.Rules {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	rules := make([]rule.Rule, len(ids))
	for i, id := range ids {
		rules[i] = c.Rules[id]
	}
	return rules
}

// checkOrderAndChaining covers properties 1, 2 and 3.  It replays the
// trace incrementally: for events whose views read through the trace's
// versioned store, the old view is by construction the running
// reconstruction and the new view is that plus the event's own write, so
// full interpretations are materialized (and compared) only around events
// carrying eager state overrides.  These two properties compare whole
// states, so this is the one phase that cannot use point reads.
func (c *Checker) checkOrderAndChaining(t *Trace, events []*event.Event) []Violation {
	var out []Violation
	var prevTime time.Time
	cur := t.Initial() // running source reconstruction, mutated in place
	prev := cur        // new interpretation reported by the previous event
	prevIsCur := true  // prev aliases cur: chaining holds trivially
	for i, e := range events {
		if i > 0 && e.Time.Before(prevTime) {
			out = append(out, Violation{Property: 1, Seq: e.Seq,
				Msg: fmt.Sprintf("event time %v precedes predecessor %v", e.Time, prevTime)})
		}
		prevTime = e.Time
		if e.HasEagerStates() {
			eOld, eNew := e.Old(), e.New()
			// Property 3: old chains from previous new.
			if !eOld.Equal(prev) {
				out = append(out, Violation{Property: 3, Seq: e.Seq,
					Msg: fmt.Sprintf("old interpretation %s does not chain from %s", eOld, prev)})
			}
			// Property 2: write semantics.
			var want data.Interpretation
			if e.Desc.Op.IsWrite() {
				want = eOld.With(e.Desc.Item, e.Desc.Val)
			} else {
				want = eOld
			}
			if !eNew.Equal(want) {
				out = append(out, Violation{Property: 2, Seq: e.Seq,
					Msg: fmt.Sprintf("new interpretation %s, want %s for %s", eNew, want, e.Desc)})
			}
			if e.Desc.Op.IsWrite() {
				cur.Set(e.Desc.Item, e.Desc.Val)
			}
			prev, prevIsCur = eNew, false
		} else {
			// Source-backed views: Old() would return exactly cur and
			// New() exactly cur plus this event's write, so property 2
			// holds by construction and property 3 can only fail against
			// an eager override left by the predecessor.
			if !prevIsCur && !cur.Equal(prev) {
				out = append(out, Violation{Property: 3, Seq: e.Seq,
					Msg: fmt.Sprintf("old interpretation %s does not chain from %s", cur, prev)})
			}
			if e.Desc.Op.IsWrite() {
				cur.Set(e.Desc.Item, e.Desc.Val)
			}
			prev, prevIsCur = cur, true
		}
	}
	return out
}

// checkProvenance covers properties 4 and 5: spontaneous events carry no
// rule/trigger; generated events carry both, their trigger matches the
// rule's LHS, the conditions held, and the event instantiates one of the
// rule's RHS templates.  Late generated events are metric violations.
func (c *Checker) checkProvenance(events []*event.Event) []Violation {
	var out []Violation
	for _, e := range events {
		if e.Rule == "" && e.Trigger == nil {
			continue // property 4 satisfied by construction for spontaneous events
		}
		if e.Rule == "" || e.Trigger == nil {
			out = append(out, Violation{Property: 4, Seq: e.Seq,
				Msg: fmt.Sprintf("event %s has rule=%q trigger=%v; both or neither required", e.Desc, e.Rule, e.Trigger)})
			continue
		}
		r, ok := c.Rules[e.Rule]
		if !ok {
			out = append(out, Violation{Property: 5, Seq: e.Seq,
				Msg: fmt.Sprintf("event generated by unknown rule %q", e.Rule)})
			continue
		}
		b, ok := r.LHS.Match(e.Trigger.Desc)
		if !ok {
			out = append(out, Violation{Property: 5, Seq: e.Seq,
				Msg: fmt.Sprintf("trigger %s does not match LHS %s of rule %s", e.Trigger.Desc, r.LHS, r.ID)})
			continue
		}
		// Property 5c: LHS condition satisfied by trigger's new state, with
		// equality-binding semantics.
		condOK, err := rule.EvalCondBinding(r.Cond, env{params: b, read: e.Trigger.NewValue}, b)
		if err != nil || !condOK {
			out = append(out, Violation{Property: 5, Seq: e.Seq,
				Msg: fmt.Sprintf("LHS condition of rule %s not satisfied at trigger (err=%v)", r.ID, err)})
			continue
		}
		// Property 5b: event instantiates some RHS template under b.
		// Matching (rather than substituting) binds RHS-only reserved
		// parameters such as "now" from the event itself.
		matched := false
		var guard rule.Expr
		for _, step := range r.Steps {
			if step.Eff.Op == event.OpF {
				continue
			}
			bb := b.Clone()
			if !step.Eff.MatchInto(e.Desc, bb) {
				continue
			}
			if step.ValExpr != nil {
				// Computed value: re-evaluate against the firing state and
				// require agreement.
				v, err := step.ValExpr.Eval(env{params: bb, read: e.OldValue})
				if err != nil || !v.Equal(e.Desc.Val) {
					continue
				}
			}
			matched = true
			guard = step.Cond
			b = bb
			break
		}
		if !matched {
			out = append(out, Violation{Property: 5, Seq: e.Seq,
				Msg: fmt.Sprintf("event %s is not an instantiation of any RHS template of rule %s", e.Desc, r.ID)})
			continue
		}
		// Property 5d: the step guard held in the event's old state.
		if guard != nil {
			ok, err := rule.EvalBool(guard, env{params: b, read: e.OldValue})
			if err != nil || !ok {
				out = append(out, Violation{Property: 5, Seq: e.Seq,
					Msg: fmt.Sprintf("RHS guard of rule %s not satisfied at firing (err=%v)", r.ID, err)})
			}
		}
		// Metric obligation: the event must fall within [t, t+δ].
		if e.Time.Before(e.Trigger.Time) {
			out = append(out, Violation{Property: 5, Seq: e.Seq,
				Msg: fmt.Sprintf("generated event precedes its trigger")})
		} else if e.Time.After(e.Trigger.Time.Add(r.Delta)) {
			out = append(out, Violation{Property: 5, Metric: true, Seq: e.Seq,
				Msg: fmt.Sprintf("rule %s fired %v after trigger; bound is %v", r.ID, e.Time.Sub(e.Trigger.Time), r.Delta)})
		}
	}
	return out
}

// checkObligations covers property 6: every rule whose LHS matched and
// whose condition held must have each RHS step either fired in the window
// or excused by a false guard at some instant of the window.  F steps can
// never fire, so a triggered F step whose guard cannot have been false is
// a violation — this is how "no spontaneous writes" interface promises are
// checked.
func (c *Checker) checkObligations(t *Trace, events []*event.Event) []Violation {
	var out []Violation
	if len(events) == 0 {
		return nil
	}
	horizon := events[len(events)-1].Time
	// Index generated events by (rule, trigger seq) for fast lookup.
	type key struct {
		rule string
		trig uint64
	}
	gen := map[key][]*event.Event{}
	for _, e := range events {
		if e.Rule != "" && e.Trigger != nil {
			k := key{e.Rule, e.Trigger.Seq}
			gen[k] = append(gen[k], e)
		}
	}
	rules := c.sortedRules()
	for _, e := range events {
		for _, r := range rules {
			b, ok := r.LHS.Match(e.Desc)
			if !ok {
				continue
			}
			condOK, err := rule.EvalCondBinding(r.Cond, env{params: b, read: e.NewValue}, b)
			if err != nil || !condOK {
				continue
			}
			deadline := e.Time.Add(r.Delta)
			if deadline.After(horizon) {
				continue // window still open at end of trace
			}
			fired := gen[key{r.ID, e.Seq}]
			var prevFire time.Time
			var prevSeq uint64
			for si, step := range r.Steps {
				if step.Eff.Op == event.OpF {
					if !c.guardCouldBeFalse(t, events, step.Cond, b, e.Time, deadline) {
						out = append(out, Violation{Property: 6, Seq: e.Seq,
							Msg: fmt.Sprintf("rule %s requires the false event: %s occurred but was promised impossible", r.ID, e.Desc)})
					}
					continue
				}
				var hit *event.Event
				for _, g := range fired {
					bb := b.Clone()
					if step.Eff.MatchInto(g.Desc, bb) {
						hit = g
						break
					}
				}
				if hit == nil {
					if step.Cond == nil || !c.guardCouldBeFalse(t, events, step.Cond, b, e.Time, deadline) {
						out = append(out, Violation{Property: 6, Seq: e.Seq,
							Msg: fmt.Sprintf("rule %s step %d (%s) never fired for trigger %s and its guard could not have been false", r.ID, si+1, step.Eff, e.Desc)})
					}
					continue
				}
				if hit.Time.After(deadline) {
					out = append(out, Violation{Property: 6, Metric: true, Seq: hit.Seq,
						Msg: fmt.Sprintf("rule %s step %d fired %v late", r.ID, si+1, hit.Time.Sub(deadline))})
				}
				if !prevFire.IsZero() && (hit.Time.Before(prevFire) || (hit.Time.Equal(prevFire) && hit.Seq < prevSeq)) {
					out = append(out, Violation{Property: 6, Seq: hit.Seq,
						Msg: fmt.Sprintf("rule %s steps fired out of order", r.ID)})
				}
				prevFire, prevSeq = hit.Time, hit.Seq
			}
		}
	}
	return out
}

// guardCouldBeFalse reports whether guard evaluated false at some instant
// in [from, to].  The state is piecewise constant between events, so it
// suffices to sample the state at from and after each event in the window.
// Both scans are linear and stop at the first event past their bound: a
// violated trace may have non-monotone times, and the verdict is defined
// by that scan, not by a search on time.
func (c *Checker) guardCouldBeFalse(t *Trace, events []*event.Event, guard rule.Expr, b event.Bindings, from, to time.Time) bool {
	if guard == nil {
		return false
	}
	isFalse := func(read func(data.ItemName) data.Value) bool {
		ok, err := rule.EvalBool(guard, env{params: b, read: read})
		return err == nil && !ok
	}
	// The state at from is the one the store holds after the last event
	// not later than from (the folded base when there is none).
	var bound uint64
	for _, e := range events {
		if e.Time.After(from) {
			break
		}
		bound = e.Seq + 1
	}
	if isFalse(func(item data.ItemName) data.Value { return t.valueAtSeq(bound, item) }) {
		return true
	}
	for _, e := range events {
		if e.Time.After(to) {
			break
		}
		if !e.Time.Before(from) && isFalse(e.NewValue) {
			return true
		}
	}
	return false
}

// checkInOrder covers property 7: for related rules (same trigger site and
// same effect site), effect order must agree with trigger order.  Two
// generated events are compared by (time, seq); equal trigger keys impose
// no constraint.  The grouping key includes the recording hosts: in a
// static deployment a site lives on one shell so host adds nothing, but in
// a sharded fleet one site spans many shells and FIFO processing — the
// guarantee property 7 rests on — is provided per mesh link, so the
// property is checked at that granularity (DESIGN.md §10).
func (c *Checker) checkInOrder(events []*event.Event) []Violation {
	type gkey struct{ from, fromHost, to, toHost string }
	groups := map[gkey][]*event.Event{}
	for _, e := range events {
		if e.Rule == "" || e.Trigger == nil {
			continue
		}
		k := gkey{e.Trigger.Site, e.Trigger.Host, e.Site, e.Host}
		groups[k] = append(groups[k], e)
	}
	// Sorted key order, for the same reason as sortedRules.
	keys := make([]gkey, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b gkey) int {
		return cmp.Or(cmp.Compare(a.from, b.from), cmp.Compare(a.fromHost, b.fromHost),
			cmp.Compare(a.to, b.to), cmp.Compare(a.toHost, b.toHost))
	})
	var out []Violation
	for _, k := range keys {
		g := groups[k]
		sort.Slice(g, func(i, j int) bool {
			ti, tj := g[i].Trigger, g[j].Trigger
			if !ti.Time.Equal(tj.Time) {
				return ti.Time.Before(tj.Time)
			}
			return ti.Seq < tj.Seq
		})
		// Scan blocks of equal trigger keys; across distinct blocks the
		// minimum effect key of the later block must not precede the
		// maximum effect key of the earlier block.
		i := 0
		var prevMaxT time.Time
		var prevMaxSeq uint64
		first := true
		for i < len(g) {
			j := i
			blockMinT, blockMinSeq := g[i].Time, g[i].Seq
			blockMaxT, blockMaxSeq := g[i].Time, g[i].Seq
			for j < len(g) && g[j].Trigger.Time.Equal(g[i].Trigger.Time) && g[j].Trigger.Seq == g[i].Trigger.Seq {
				if g[j].Time.Before(blockMinT) || (g[j].Time.Equal(blockMinT) && g[j].Seq < blockMinSeq) {
					blockMinT, blockMinSeq = g[j].Time, g[j].Seq
				}
				if g[j].Time.After(blockMaxT) || (g[j].Time.Equal(blockMaxT) && g[j].Seq > blockMaxSeq) {
					blockMaxT, blockMaxSeq = g[j].Time, g[j].Seq
				}
				j++
			}
			if !first {
				if blockMinT.Before(prevMaxT) || (blockMinT.Equal(prevMaxT) && blockMinSeq < prevMaxSeq) {
					out = append(out, Violation{Property: 7, Seq: blockMinSeq,
						Msg: fmt.Sprintf("out-of-order delivery between sites %s -> %s", k.from, k.to)})
				}
			}
			if first || blockMaxT.After(prevMaxT) || (blockMaxT.Equal(prevMaxT) && blockMaxSeq > prevMaxSeq) {
				prevMaxT, prevMaxSeq = blockMaxT, blockMaxSeq
			}
			first = false
			i = j
		}
	}
	return out
}
