// Package guarantee implements the paper's guarantee language (Section
// 3.3) as checkable predicates over recorded executions.  Where the paper
// proves guarantees from interface and strategy specifications using proof
// rules [CGMW94], this package decides — for a concrete recorded trace —
// whether each guarantee held, turning every test and benchmark run into a
// machine-checked instance of the paper's claims.
//
// The guarantee forms implemented here are exactly those the paper
// discusses:
//
//	Follows          (1)  (Y=y)@t1 ⇒ (X=y)@t2 ∧ t2 < t1
//	Leads            (2)  (X=x)@t1 ⇒ (Y=x)@t2 ∧ t2 > t1
//	StrictlyFollows  (3)  order-preserving propagation
//	MetricFollows    (4)  (Y=y)@t1 ⇒ (X=y)@t2 ∧ t1−κ < t2 < t1
//	MetricLeads           (X=x)@t1 ⇒ (Y=x)@t2 ∧ t1 < t2 ≤ t1+κ
//	Invariant             pred@t for all t            (Demarcation, §6.1)
//	ExistsWithin          E(P(i))@t ⇒ E(S(i))@[t, t+κ]   (referential, §6.2)
//	MonitorFlag           (Flag ∧ Tb=s)@t ⇒ (X=Y)@@[s, t−κ]  (§6.3)
//	Periodic              pred holds daily in a wall-clock window (§6.4)
//
// Guarantees over parameterized families (salary1(n) = salary2(n) for all
// n) are checked per observed key.
//
// There is one engine (monitor.go).  The first two forms and the four
// with a bounded window (MetricFollows, MetricLeads, Invariant,
// ExistsWithin) each have a single checker, and CheckAll is a one-shot
// run of those checkers on fresh state over one shared family index; a
// Monitor runs the same checkers with carried markers, which is what
// lets a trace be compacted behind it.  StrictlyFollows, MonitorFlag and
// Periodic are decided by CheckAll only — each needs history a window
// does not bound (monitor.go says why, form by form).
package guarantee

import (
	"fmt"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/event"
	"cmtk/internal/rule"
	"cmtk/internal/trace"
	"cmtk/internal/vclock"
)

// Guarantee is a checkable consistency statement.
type Guarantee interface {
	// Name returns a short identifier, e.g. "follows(X,Y)".
	Name() string
	// Formula renders the guarantee in the paper's logical notation.
	Formula() string
	// Check decides whether the guarantee held over the trace.
	Check(tr *trace.Trace) Report
}

// Report is the outcome of checking one guarantee against one trace.
type Report struct {
	Guarantee  string
	Formula    string
	Holds      bool
	Checked    int      // obligations examined
	Violated   int      // obligations violated, exact
	Violations []string // human-readable descriptions of the first maxViolations
}

const maxViolations = 16

// Violate counts a violation, records its description while under the
// cap, and marks the report failed.  Custom guarantee implementations
// outside this package use it too.
func (r *Report) Violate(format string, args ...any) {
	r.Holds = false
	r.Violated++
	if len(r.Violations) < maxViolations {
		r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
	}
}

func (r Report) String() string {
	status := "HOLDS"
	if !r.Holds {
		status = fmt.Sprintf("VIOLATED (%d violated, %d shown)", r.Violated, len(r.Violations))
	}
	return fmt.Sprintf("%s: %s over %d obligations", r.Guarantee, status, r.Checked)
}

// ValueTime decodes a TimeValue.
func ValueTime(v data.Value) (time.Time, bool) { return vclock.ValueTime(v) }

// sampleBefore orders timeline samples by (time, seq).
func sampleBefore(a, b trace.Sample) bool {
	if !a.At.Equal(b.At) {
		return a.At.Before(b.At)
	}
	return a.Seq < b.Seq
}

func argsKey(args []data.Value) string {
	return data.ItemName{Base: "", Args: args}.String()
}

// Follows is guarantee (1) of Section 3.3.1: at no time does Y hold a value
// not previously (or initially) taken by X.  X and Y are item base names;
// parameterized families are checked per key.
type Follows struct {
	X, Y string
}

// Name implements Guarantee.
func (g Follows) Name() string { return fmt.Sprintf("follows(%s,%s)", g.X, g.Y) }

// Formula implements Guarantee.
func (g Follows) Formula() string {
	return fmt.Sprintf("(%s = y)@t1 => (%s = y)@t2 and t2 < t1", g.Y, g.X)
}

// Check implements Guarantee: the one-guarantee case of CheckAll.
func (g Follows) Check(tr *trace.Trace) Report { return CheckAll(tr, g)[0] }

// Leads is guarantee (2): every value taken by X is eventually reflected
// in Y — no lost values.  Settle excuses X-values taken within Settle of
// the end of the trace, whose propagation window is still open.
type Leads struct {
	X, Y   string
	Settle time.Duration
}

// Name implements Guarantee.
func (g Leads) Name() string { return fmt.Sprintf("leads(%s,%s)", g.X, g.Y) }

// Formula implements Guarantee.
func (g Leads) Formula() string {
	return fmt.Sprintf("(%s = x)@t1 => (%s = x)@t2 and t2 > t1", g.X, g.Y)
}

// Check implements Guarantee: the one-guarantee case of CheckAll.
func (g Leads) Check(tr *trace.Trace) Report { return CheckAll(tr, g)[0] }

// StrictlyFollows is guarantee (3): Y receives X's values in the order X
// took them.  We check the strongest natural reading: the sequence of
// distinct values Y takes is a subsequence of the sequence of distinct
// values X takes.
type StrictlyFollows struct {
	X, Y string
}

// Name implements Guarantee.
func (g StrictlyFollows) Name() string { return fmt.Sprintf("strictly-follows(%s,%s)", g.X, g.Y) }

// Formula implements Guarantee.
func (g StrictlyFollows) Formula() string {
	return fmt.Sprintf("(%s=y1)@t1 and (%s=y2)@t2 and t1<t2 => (%s=y1)@t3 and (%s=y2)@t4 and t3<t4",
		g.Y, g.Y, g.X, g.X)
}

// Check implements Guarantee: the one-guarantee case of CheckAll.
func (g StrictlyFollows) Check(tr *trace.Trace) Report { return CheckAll(tr, g)[0] }

// check walks each pair's Y timeline against a cursor into X's that only
// moves forward.
func (g StrictlyFollows) check(tr *trace.Trace, ix *famIndex, rep *Report) {
	for _, pair := range ix.pairs(g.X, g.Y) {
		x, y := pair[0], pair[1]
		xtl := tr.Timeline(x)
		i := 0
		for _, ys := range tr.Timeline(y) {
			if ys.V.IsNull() {
				continue
			}
			rep.Checked++
			found := false
			for i < len(xtl) {
				if xtl[i].V.Equal(ys.V) {
					found = true
					i++
					break
				}
				i++
			}
			if !found {
				rep.Violate("%s value %s at %s breaks order against %s",
					y, ys.V, ys.At.Format(time.TimeOnly), x)
				break
			}
		}
	}
}

// MetricFollows is guarantee (4): Y only takes values X held no more than
// Kappa ago.
type MetricFollows struct {
	X, Y  string
	Kappa time.Duration
}

// Name implements Guarantee.
func (g MetricFollows) Name() string {
	return fmt.Sprintf("metric-follows(%s,%s,%s)", g.X, g.Y, g.Kappa)
}

// Formula implements Guarantee.
func (g MetricFollows) Formula() string {
	return fmt.Sprintf("(%s = y)@t1 => (%s = y)@t2 and t1-%s < t2 <= t1", g.Y, g.X, g.Kappa)
}

// Check implements Guarantee: the one-guarantee case of CheckAll.
func (g MetricFollows) Check(tr *trace.Trace) Report { return CheckAll(tr, g)[0] }

// MetricLeads bounds propagation delay: every value X takes appears in Y
// within Kappa.
type MetricLeads struct {
	X, Y  string
	Kappa time.Duration
}

// Name implements Guarantee.
func (g MetricLeads) Name() string {
	return fmt.Sprintf("metric-leads(%s,%s,%s)", g.X, g.Y, g.Kappa)
}

// Formula implements Guarantee.
func (g MetricLeads) Formula() string {
	return fmt.Sprintf("(%s = x)@t1 => (%s = x)@t2 and t1 < t2 <= t1+%s", g.X, g.Y, g.Kappa)
}

// Check implements Guarantee: the one-guarantee case of CheckAll.
func (g MetricLeads) Check(tr *trace.Trace) Report { return CheckAll(tr, g)[0] }

// Invariant asserts a condition over data items holds in every state of
// the execution, e.g. the Demarcation Protocol's X <= Y.  The expression
// may not reference rule parameters.
type Invariant struct {
	Label string
	Pred  rule.Expr
}

// Name implements Guarantee.
func (g Invariant) Name() string { return fmt.Sprintf("invariant(%s)", g.Label) }

// Formula implements Guarantee.
func (g Invariant) Formula() string { return fmt.Sprintf("(%s)@t for all t", g.Pred) }

// Check implements Guarantee: the one-guarantee case of CheckAll.
func (g Invariant) Check(tr *trace.Trace) Report { return CheckAll(tr, g)[0] }

type itemEnv struct{ in data.Interpretation }

func envOf(in data.Interpretation) rule.Env { return itemEnv{in} }

func (e itemEnv) Param(string) (data.Value, bool) { return data.NullValue, false }
func (e itemEnv) Item(n data.ItemName) (data.Value, bool, error) {
	v := e.in.Get(n)
	return v, !v.IsNull(), nil
}

// ExistsWithin is the weakened referential-integrity guarantee of Section
// 6.2: whenever an item of family Ref exists, the matching item of family
// Target exists within Kappa — equivalently, no contiguous violation
// window for one key exceeds Kappa.
type ExistsWithin struct {
	Ref, Target string
	Kappa       time.Duration
}

// Name implements Guarantee.
func (g ExistsWithin) Name() string {
	return fmt.Sprintf("exists-within(%s,%s,%s)", g.Ref, g.Target, g.Kappa)
}

// Formula implements Guarantee.
func (g ExistsWithin) Formula() string {
	return fmt.Sprintf("E(%s(i))@t => E(%s(i))@[t, t+%s]", g.Ref, g.Target, g.Kappa)
}

// Check implements Guarantee: the one-guarantee case of CheckAll.
func (g ExistsWithin) Check(tr *trace.Trace) Report { return CheckAll(tr, g)[0] }

// MonitorFlag is the monitoring guarantee of Section 6.3:
//
//	((Flag = true) ∧ (Tb = s))@t ⇒ (X = Y)@@[s, t−κ]
//
// whenever the auxiliary Flag is set, the copy constraint held throughout
// the interval from the recorded base time Tb to κ before now.
type MonitorFlag struct {
	Flag, Tb data.ItemName
	X, Y     data.ItemName
	Kappa    time.Duration
}

// Name implements Guarantee.
func (g MonitorFlag) Name() string {
	return fmt.Sprintf("monitor(%s,%s)", g.X, g.Y)
}

// Formula implements Guarantee.
func (g MonitorFlag) Formula() string {
	return fmt.Sprintf("((%s = true) and (%s = s))@t => (%s = %s)@@[s, t-%s]",
		g.Flag, g.Tb, g.X, g.Y, g.Kappa)
}

// Check implements Guarantee.  The left-hand side is evaluated at every
// state of the execution.
func (g MonitorFlag) Check(tr *trace.Trace) Report {
	rep := Report{Guarantee: g.Name(), Formula: g.Formula(), Holds: true}
	// equalAt reports whether X=Y held at all states in [from, to].
	equalAt := func(from, to time.Time) bool {
		if to.Before(from) {
			return true // empty interval
		}
		st := tr.StateAt(from)
		if !st.Get(g.X).Equal(st.Get(g.Y)) {
			return false
		}
		equal := true
		tr.WalkNewStates(func(e *event.Event, in data.Interpretation) bool {
			if e.Time.After(to) {
				return false
			}
			if !e.Time.Before(from) && !in.Get(g.X).Equal(in.Get(g.Y)) {
				equal = false
				return false
			}
			return true
		})
		return equal
	}
	tr.WalkNewStates(func(e *event.Event, in data.Interpretation) bool {
		if !in.Get(g.Flag).Truthy() {
			return true
		}
		s, ok := ValueTime(in.Get(g.Tb))
		if !ok {
			rep.Violate("Flag set at %s but %s holds no time", e.Time.Format(time.TimeOnly), g.Tb)
			return true
		}
		rep.Checked++
		if !equalAt(s, e.Time.Add(-g.Kappa)) {
			rep.Violate("Flag set at %s but %s != %s within [%s, t-%s]",
				e.Time.Format(time.TimeOnly), g.X, g.Y, s.Format(time.TimeOnly), g.Kappa)
		}
		return true
	})
	return rep
}

// Periodic is the banking guarantee of Section 6.4: the predicate holds
// every day between From and To (offsets from midnight; To may be on the
// following day, e.g. 17:15 to 08:00).
type Periodic struct {
	Label    string
	Pred     rule.Expr
	From, To time.Duration // offsets from midnight, local to the trace's clock
}

// Name implements Guarantee.
func (g Periodic) Name() string { return fmt.Sprintf("periodic(%s)", g.Label) }

// Formula implements Guarantee.
func (g Periodic) Formula() string {
	return fmt.Sprintf("(%s)@t for all t with tod(t) in [%s, %s)", g.Pred, g.From, g.To)
}

// inWindow reports whether the instant falls inside the daily window.
func (g Periodic) inWindow(t time.Time) bool {
	midnight := time.Date(t.Year(), t.Month(), t.Day(), 0, 0, 0, 0, t.Location())
	off := t.Sub(midnight)
	if g.From <= g.To {
		return off >= g.From && off < g.To
	}
	return off >= g.From || off < g.To // wraps past midnight
}

// Check implements Guarantee.  The state is piecewise constant, so it
// suffices to evaluate at each event inside the window and at each window
// opening instant.
func (g Periodic) Check(tr *trace.Trace) Report {
	rep := Report{Guarantee: g.Name(), Formula: g.Formula(), Holds: true}
	evalAt := func(at time.Time, in data.Interpretation) {
		rep.Checked++
		ok, err := rule.EvalBool(g.Pred, envOf(in))
		if err != nil {
			rep.Violate("evaluation error at %s: %v", at.Format(time.DateTime), err)
			return
		}
		if !ok {
			rep.Violate("predicate false at %s", at.Format(time.DateTime))
		}
	}
	events := tr.Events()
	if len(events) == 0 {
		return rep
	}
	tr.WalkNewStates(func(e *event.Event, in data.Interpretation) bool {
		if g.inWindow(e.Time) {
			evalAt(e.Time, in)
		}
		return true
	})
	// Window openings: for each day spanned by the trace, if the opening
	// instant lies within the trace, evaluate the state then.
	start, end := events[0].Time, events[len(events)-1].Time
	for day := time.Date(start.Year(), start.Month(), start.Day(), 0, 0, 0, 0, start.Location()); !day.After(end); day = day.Add(24 * time.Hour) {
		open := day.Add(g.From)
		if open.After(start) && open.Before(end) {
			evalAt(open, tr.StateAt(open))
		}
	}
	return rep
}

// CheckAll evaluates a set of guarantees against a trace.  The family
// index is built once and shared; every form with an engine (see
// monitor.go) is decided by that engine's finish on fresh state — the
// pass Monitor.Reports runs on a clone of its carried state — so a
// verdict has one definition whether it is reached in one shot or
// incrementally.  Guarantees defined outside this package go through
// their own Check.
func CheckAll(tr *trace.Trace, gs ...Guarantee) []Report {
	ix, end := indexFamilies(tr), tr.End()
	out := make([]Report, len(gs))
	for i, g := range gs {
		inc := newIncremental(g)
		sf, strict := g.(StrictlyFollows)
		if inc == nil && !strict {
			out[i] = g.Check(tr)
			continue
		}
		out[i] = Report{Guarantee: g.Name(), Formula: g.Formula(), Holds: true}
		if strict {
			sf.check(tr, ix, &out[i])
		} else {
			inc.finish(tr, ix, end, &out[i])
		}
	}
	return out
}

// AllHold reports whether every report holds.
func AllHold(reports []Report) bool {
	for _, r := range reports {
		if !r.Holds {
			return false
		}
	}
	return true
}
