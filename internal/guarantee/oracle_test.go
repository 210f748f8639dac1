package guarantee

// The batch checkers this package shipped before CheckAll became a
// one-shot run of the Monitor's checkers, kept verbatim (receivers turned
// into functions, nothing else) as the test oracle: CheckAll and the
// compacted, handed-off Monitor are both compared against these bodies,
// which share neither the family index nor the anchor scans nor the sorts
// with the engine — only the (time, seq) sample order, the argument key
// and the expression environment (sampleBefore, argsKey, envOf).

import (
	"time"

	"cmtk/internal/data"
	"cmtk/internal/event"
	"cmtk/internal/rule"
	"cmtk/internal/trace"
)

// oracleAll is the old CheckAll: each guarantee decided on its own by the
// old body of its form.
func oracleAll(tr *trace.Trace, gs ...Guarantee) []Report {
	out := make([]Report, len(gs))
	for i, g := range gs {
		switch g := g.(type) {
		case Follows:
			out[i] = oracleFollows(g, tr)
		case Leads:
			out[i] = oracleLeads(g, tr)
		case MetricFollows:
			out[i] = oracleMetricFollows(g, tr)
		case MetricLeads:
			out[i] = oracleMetricLeads(g, tr)
		case ExistsWithin:
			out[i] = oracleExistsWithin(g, tr)
		case Invariant:
			out[i] = oracleInvariant(g, tr)
		default:
			out[i] = g.Check(tr) // the batch-only forms have one body
		}
	}
	return out
}

// families collects, for a base name, the set of argument keys observed in
// the trace (from any event on an item with that base), together with the
// concrete item names.
func families(tr *trace.Trace, base string) []data.ItemName {
	seen := map[string]data.ItemName{}
	for _, e := range tr.Events() {
		if e.Desc.Op.HasItem() && e.Desc.Item.Base == base {
			seen[e.Desc.Item.Key()] = e.Desc.Item
		}
	}
	for k := range tr.Initial() {
		n, err := data.ParseItemName(k)
		if err == nil && n.Base == base {
			seen[k] = n
		}
	}
	out := make([]data.ItemName, 0, len(seen))
	for _, n := range seen {
		out = append(out, n)
	}
	// Deterministic order.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Key() < out[j-1].Key(); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// pairKeys produces the (x,y) item pairs to check for a copy guarantee
// between two families: for parameterized bases the keys observed on
// either side are united (a key seen only on Y still obligates Y-follows-X
// for that key).
func pairKeys(tr *trace.Trace, xBase, yBase string) [][2]data.ItemName {
	xs := families(tr, xBase)
	ys := families(tr, yBase)
	keyArgs := map[string][]data.Value{}
	for _, n := range xs {
		keyArgs[argsKey(n.Args)] = n.Args
	}
	for _, n := range ys {
		keyArgs[argsKey(n.Args)] = n.Args
	}
	var out [][2]data.ItemName
	for _, args := range keyArgs {
		out = append(out, [2]data.ItemName{
			{Base: xBase, Args: args},
			{Base: yBase, Args: args},
		})
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j][0].Key() < out[j-1][0].Key(); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// oracleFollows is the old Follows.Check.
func oracleFollows(g Follows, tr *trace.Trace) Report {
	rep := Report{Guarantee: g.Name(), Formula: g.Formula(), Holds: true}
	for _, pair := range pairKeys(tr, g.X, g.Y) {
		x, y := pair[0], pair[1]
		xtl := tr.Timeline(x)
		for _, ys := range tr.Timeline(y) {
			if ys.V.IsNull() {
				continue // Y not yet set
			}
			rep.Checked++
			ok := false
			for _, xs := range xtl {
				if sampleBefore(ys, xs) {
					break
				}
				if xs.V.Equal(ys.V) {
					ok = true
					break
				}
			}
			if !ok {
				rep.Violate("%s held %s at %s which %s never held before",
					y, ys.V, ys.At.Format(time.TimeOnly), x)
			}
		}
	}
	return rep
}

// oracleLeads is the old Leads.Check.
func oracleLeads(g Leads, tr *trace.Trace) Report {
	rep := Report{Guarantee: g.Name(), Formula: g.Formula(), Holds: true}
	horizon := tr.End().Add(-g.Settle)
	for _, pair := range pairKeys(tr, g.X, g.Y) {
		x, y := pair[0], pair[1]
		ytl := tr.Timeline(y)
		for _, xs := range tr.Timeline(x) {
			if xs.V.IsNull() {
				continue
			}
			if xs.At.After(horizon) {
				continue // propagation window still open
			}
			rep.Checked++
			ok := false
			for _, ys := range ytl {
				if sampleBefore(xs, ys) && ys.V.Equal(xs.V) {
					ok = true
					break
				}
			}
			if !ok {
				rep.Violate("%s took %s at %s but %s never reflected it",
					x, xs.V, xs.At.Format(time.TimeOnly), y)
			}
		}
	}
	return rep
}

// oracleMetricFollows is the old MetricFollows.Check.  X "had value v
// within the window" when some maximal constant interval of X's timeline
// with value v intersects [t1−κ, t1].
func oracleMetricFollows(g MetricFollows, tr *trace.Trace) Report {
	rep := Report{Guarantee: g.Name(), Formula: g.Formula(), Holds: true}
	end := tr.End()
	for _, pair := range pairKeys(tr, g.X, g.Y) {
		x, y := pair[0], pair[1]
		xtl := tr.Timeline(x)
		for _, ys := range tr.Timeline(y) {
			if ys.V.IsNull() {
				continue
			}
			rep.Checked++
			from := ys.At.Add(-g.Kappa)
			ok := false
			for i, xs := range xtl {
				// Interval during which X held xs.V: [xs.At, next.At), or
				// to end of trace for the last sample.
				intEnd := end
				if i+1 < len(xtl) {
					intEnd = xtl[i+1].At
				}
				if !xs.V.Equal(ys.V) {
					continue
				}
				// Overlap with (from, ys.At]?
				if xs.At.After(ys.At) {
					break
				}
				if intEnd.After(from) {
					ok = true
					break
				}
			}
			if !ok {
				rep.Violate("%s held %s at %s but %s did not hold it within %s before",
					y, ys.V, ys.At.Format(time.TimeOnly), x, g.Kappa)
			}
		}
	}
	return rep
}

// oracleMetricLeads is the old MetricLeads.Check.
func oracleMetricLeads(g MetricLeads, tr *trace.Trace) Report {
	rep := Report{Guarantee: g.Name(), Formula: g.Formula(), Holds: true}
	horizon := tr.End().Add(-g.Kappa)
	for _, pair := range pairKeys(tr, g.X, g.Y) {
		x, y := pair[0], pair[1]
		ytl := tr.Timeline(y)
		for _, xs := range tr.Timeline(x) {
			if xs.V.IsNull() || xs.At.After(horizon) {
				continue
			}
			rep.Checked++
			deadline := xs.At.Add(g.Kappa)
			ok := false
			for _, ys := range ytl {
				if sampleBefore(xs, ys) && !ys.At.After(deadline) && ys.V.Equal(xs.V) {
					ok = true
					break
				}
			}
			if !ok {
				rep.Violate("%s took %s at %s; %s did not reflect it within %s",
					x, xs.V, xs.At.Format(time.TimeOnly), y, g.Kappa)
			}
		}
	}
	return rep
}

// oracleInvariant is the old Invariant.Check.
func oracleInvariant(g Invariant, tr *trace.Trace) Report {
	rep := Report{Guarantee: g.Name(), Formula: g.Formula(), Holds: true}
	evalAt := func(at time.Time, in data.Interpretation) {
		rep.Checked++
		ok, err := rule.EvalBool(g.Pred, envOf(in))
		if err != nil {
			rep.Violate("evaluation error at %s: %v", at.Format(time.TimeOnly), err)
			return
		}
		if !ok {
			rep.Violate("invariant false at %s in state %s", at.Format(time.TimeOnly), in)
		}
	}
	evalAt(time.Time{}, tr.Initial())
	tr.WalkNewStates(func(e *event.Event, in data.Interpretation) bool {
		evalAt(e.Time, in)
		return true
	})
	return rep
}

// oracleExistsWithin is the old ExistsWithin.Check.
func oracleExistsWithin(g ExistsWithin, tr *trace.Trace) Report {
	rep := Report{Guarantee: g.Name(), Formula: g.Formula(), Holds: true}
	end := tr.End()
	for _, pair := range pairKeys(tr, g.Ref, g.Target) {
		ref, tgt := pair[0], pair[1]
		rep.Checked++
		// Walk the event sequence tracking the violation condition
		// E(ref) && !E(tgt).
		violStart := time.Time{}
		inViol := false
		consider := func(at time.Time, in data.Interpretation) {
			bad := in.Has(ref) && !in.Has(tgt)
			switch {
			case bad && !inViol:
				inViol = true
				violStart = at
			case !bad && inViol:
				inViol = false
				if at.Sub(violStart) > g.Kappa {
					rep.Violate("%s existed without %s for %s starting %s",
						ref, tgt, at.Sub(violStart), violStart.Format(time.TimeOnly))
				}
			}
		}
		consider(time.Time{}, tr.Initial())
		tr.WalkNewStates(func(e *event.Event, in data.Interpretation) bool {
			consider(e.Time, in)
			return true
		})
		if inViol && end.Sub(violStart) > g.Kappa {
			rep.Violate("%s existed without %s for %s starting %s (unresolved at end of trace)",
				ref, tgt, end.Sub(violStart), violStart.Format(time.TimeOnly))
		}
	}
	return rep
}
