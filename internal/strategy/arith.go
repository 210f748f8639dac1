package strategy

import (
	"fmt"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/event"
	"cmtk/internal/guarantee"
	"cmtk/internal/rule"
	"cmtk/internal/trace"
)

// Arithmetic maintains the derived constraint X = Y op Z (op "+" or "-")
// across three sites, the Section 7.1 decomposition: Y and Z are cached
// at X's site by copy propagation, and X is recomputed locally from the
// caches on every change —
//
//	ay: N(Y, b) →δ W(CY, b), (exists(CZ))? W(X, eval(CY op CZ))
//	az: N(Z, b) →δ W(CZ, b), (exists(CY))? W(X, eval(CY op CZ))
//
// Only the two copy constraints are distributed; the arithmetic is a
// purely local computation, so no global transactions are needed.
// Requires notify interfaces on Y and Z and a write interface on X.
//
//cmlint:allow deadsurface(the paper's §7.1 strategy, held by TestArithmeticStrategyEndToEnd)
func Arithmetic(x, y, z, op, xSite string, o Options) (Choice, error) {
	if op != "+" && op != "-" {
		return Choice{}, fmt.Errorf("strategy: arithmetic supports + and -, got %q", op)
	}
	cy, cz := "C"+y, "C"+z
	sum := rule.Binary{Op: op, L: rule.ItemRef{Base: cy}, R: rule.ItemRef{Base: cz}}
	bothSet := func(other string) rule.Expr {
		return rule.Call{Fn: "exists", Args: []rule.Expr{rule.ItemRef{Base: other}}}
	}
	mk := func(id, src, cache, other string) rule.Rule {
		return rule.Rule{
			ID:    id,
			LHS:   event.TN(event.ItemT(src), event.Param("b")),
			Delta: o.delta(),
			Steps: []rule.Step{
				{Eff: event.TW(event.ItemT(cache), event.Param("b"))},
				{Cond: bothSet(other), Eff: event.TW(event.ItemT(x), event.Wild()), ValExpr: sum},
			},
		}
	}
	k := o.bound()
	return Choice{
		Name:        "arithmetic",
		Description: fmt.Sprintf("maintain %s = %s %s %s via caches at %s", x, y, op, z, xSite),
		Rules: []rule.Rule{
			mk(fmt.Sprintf("ay:%s", y), y, cy, cz),
			mk(fmt.Sprintf("az:%s", z), z, cz, cy),
		},
		Private: map[string]string{cy: xSite, cz: xSite},
		Guarantees: []guarantee.Guarantee{
			DerivedLag{X: x, Y: y, Z: z, Op: op, Kappa: k},
		},
		Kappa: k,
	}, nil
}

// DerivedLag is the guarantee the arithmetic strategy realizes: whenever
// Y op Z held a stable value for at least Kappa, X equals it by the end
// of that stable period.  (During propagation X may briefly lag, exactly
// like a copy constraint's metric guarantees.)
type DerivedLag struct {
	X, Y, Z string
	Op      string
	Kappa   time.Duration
}

// Name implements guarantee.Guarantee.
func (g DerivedLag) Name() string {
	return fmt.Sprintf("derived(%s=%s%s%s,%s)", g.X, g.Y, g.Op, g.Z, g.Kappa)
}

// Formula implements guarantee.Guarantee.
func (g DerivedLag) Formula() string {
	return fmt.Sprintf("(%s %s %s = v)@@[t, t+%s] => (%s = v)@(t+%s)",
		g.Y, g.Op, g.Z, g.Kappa, g.X, g.Kappa)
}

// Check implements guarantee.Guarantee.
func (g DerivedLag) Check(tr *trace.Trace) guarantee.Report {
	rep := guarantee.Report{Guarantee: g.Name(), Formula: g.Formula(), Holds: true}
	events := tr.Events()
	if len(events) == 0 {
		return rep
	}
	// Build the timeline of Y op Z.
	type sample struct {
		at time.Time
		v  data.Value
		ok bool
	}
	var sums []sample
	compute := func(in data.Interpretation) (data.Value, bool) {
		yv, zv := in.Get(data.Item(g.Y)), in.Get(data.Item(g.Z))
		if yv.IsNull() || zv.IsNull() {
			return data.NullValue, false
		}
		v, err := data.Arith(g.Op[0], yv, zv)
		if err != nil {
			return data.NullValue, false
		}
		return v, true
	}
	v0, ok0 := compute(tr.Initial())
	sums = append(sums, sample{at: events[0].Time, v: v0, ok: ok0})
	tr.WalkNewStates(func(e *event.Event, in data.Interpretation) bool {
		v, ok := compute(in)
		last := sums[len(sums)-1]
		if ok != last.ok || (ok && !v.Equal(last.v)) {
			sums = append(sums, sample{at: e.Time, v: v, ok: ok})
		}
		return true
	})
	end := tr.End()
	for i, s := range sums {
		if !s.ok {
			continue
		}
		stableUntil := end
		if i+1 < len(sums) {
			stableUntil = sums[i+1].at
		}
		if stableUntil.Sub(s.at) < g.Kappa {
			continue // never stable long enough to obligate
		}
		rep.Checked++
		at := s.at.Add(g.Kappa)
		x := tr.StateAt(at).Get(data.Item(g.X))
		if !x.Equal(s.v) {
			rep.Violate("%s %s %s settled to %s at %s but %s = %s after %s",
				g.Y, g.Op, g.Z, s.v, s.at.Format(time.TimeOnly), g.X, x, g.Kappa)
		}
	}
	return rep
}
