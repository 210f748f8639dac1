// The guarantee engine.  Six forms — the follows and the leads
// direction of a copy, each metric or not, ExistsWithin and Invariant —
// are decided by three checkers (incCopy, incExistsWithin,
// incInvariant), and a verdict has one definition, reached two ways.
// CheckAll runs each checker's finish once, on fresh state, over the
// whole trace.  Monitor runs the same checkers with carried markers:
// advance discharges each obligation exactly once, while the trace still
// retains the obligation's full window, and Reports runs finish on a
// clone of what is still pending.  That is what makes trace compaction
// verdict-preserving: the monitor's Horizon() names the oldest instant
// any *pending* obligation can still look back to, so everything older
// can be folded away (trace.CompactBefore) without changing what
// Reports() will ever say.
//
// Only guarantees with a bounded window are admissible to a Monitor — the
// metric forms (4) and the §6 bounded guarantees.  Register rejects the
// rest: a deployment that wants both compaction and an unbounded
// guarantee has asked for a contradiction, and gets told so instead of a
// silently wrong verdict.  Follows and Leads run on the engine but have
// no window: a Y value may be justified by, and an X value may wait for,
// a write arbitrarily far away.  Three forms have no checker here at all
// and are decided by CheckAll only:
//
//   - StrictlyFollows advances one cursor through X's whole value
//     sequence, so each obligation depends on every earlier one back to
//     the start of the trace.
//   - MonitorFlag looks back to the base time recorded in Tb, which is
//     data, not a bound: the interval [Tb, t−κ] is as long as the
//     application made it.
//   - Periodic is anchored to the calendar: its obligations are the daily
//     opening instants between the first and the last event, and a folded
//     trace no longer knows when it began.
package guarantee

import (
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/event"
	"cmtk/internal/rule"
	"cmtk/internal/trace"
)

// Monitor incrementally checks a set of windowed guarantees against a
// growing trace.  Advance processes newly decidable obligations;
// Horizon reports the oldest instant still needed; Reports renders the
// verdicts as if the trace ended now, matching what CheckAll says on the
// full, uncompacted history.  Monitor is safe for concurrent use.
type Monitor struct {
	//cmlint:lockrank 10
	mu      sync.Mutex
	entries []*monEntry
	horizon time.Time
	ok      bool // horizon valid (at least one Advance saw events)
}

type monEntry struct {
	g   Guarantee
	inc incremental
	rep Report
}

// incremental is the per-guarantee checker: advance discharges every
// obligation decidable with the trace ending at end and moves the
// markers past it; finish discharges the rest as of end and moves
// nothing (CheckAll calls it on fresh state, Reports on a clone, so
// Reports stays non-destructive); horizon names the oldest instant still
// needed after an advance at end.  Every checker takes its pairs from
// the shared famIndex, so one CheckAll, Advance or Reports call walks
// the events once no matter how many guarantees it serves.
type incremental interface {
	advance(tr *trace.Trace, ix *famIndex, end time.Time, rep *Report)
	finish(tr *trace.Trace, ix *famIndex, end time.Time, rep *Report)
	horizon(end time.Time) time.Time
	clone() incremental
	marshal() (json.RawMessage, error)
	unmarshal(json.RawMessage) error
}

// famIndex is a one-pass snapshot of the item families observed in the
// trace (retained events plus the folded base), shared by every checker
// during one CheckAll, Advance or Reports call.  Folded writes stay
// discoverable because compaction folds them into Initial().
type famIndex struct {
	byBase  map[string][]data.ItemName       // each in key order
	pairsOf map[[2]string][][2]data.ItemName // pairs, computed once per base pair
}

func indexFamilies(tr *trace.Trace) *famIndex {
	// Store each key once: a later sighting is an allocation-free lookup.
	seen := map[string]data.ItemName{}
	var buf [64]byte
	for _, e := range tr.Events() {
		if !e.Desc.Op.HasItem() {
			continue
		}
		k := e.Desc.Item.AppendKey(buf[:0])
		if _, ok := seen[string(k)]; !ok {
			seen[string(k)] = e.Desc.Item
		}
	}
	for k := range tr.Initial() {
		if n, err := data.ParseItemName(k); err == nil {
			seen[k] = n
		}
	}
	ix := &famIndex{byBase: map[string][]data.ItemName{}, pairsOf: map[[2]string][][2]data.ItemName{}}
	for _, k := range sortedKeys(seen) {
		n := seen[k]
		ix.byBase[n.Base] = append(ix.byBase[n.Base], n)
	}
	return ix
}

// pairs produces the (x,y) item pairs to check for a guarantee between
// two families: for parameterized bases the argument keys observed on
// either side are united (a key seen only on Y still obligates
// Y-follows-X for that key), in key order.
func (ix *famIndex) pairs(xBase, yBase string) [][2]data.ItemName {
	bases := [2]string{xBase, yBase}
	if out, ok := ix.pairsOf[bases]; ok {
		return out
	}
	keyArgs := map[string][]data.Value{}
	for _, base := range bases {
		for _, n := range ix.byBase[base] {
			keyArgs[argsKey(n.Args)] = n.Args
		}
	}
	out := make([][2]data.ItemName, 0, len(keyArgs))
	for _, k := range sortedKeys(keyArgs) {
		args := keyArgs[k]
		out = append(out, [2]data.ItemName{{Base: xBase, Args: args}, {Base: yBase, Args: args}})
	}
	ix.pairsOf[bases] = out
	return out
}

// NewMonitor returns an empty monitor.
func NewMonitor(gs ...Guarantee) (*Monitor, error) {
	m := &Monitor{}
	for _, g := range gs {
		if err := m.Register(g); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Register adds a guarantee to the monitor.  Only the four forms with
// a bounded window are accepted: MetricFollows and MetricLeads (κ),
// ExistsWithin (κ) and Invariant (decided at each state).  The rest are
// rejected, because their verdicts can depend on arbitrarily old
// history, which is exactly what compaction folds away.
func (m *Monitor) Register(g Guarantee) error {
	switch g.(type) {
	case MetricFollows, MetricLeads, ExistsWithin, Invariant:
	default:
		return fmt.Errorf("guarantee: %s has no bounded window; it cannot be monitored incrementally (use CheckAll on an uncompacted trace)", g.Name())
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries = append(m.entries, &monEntry{
		g:   g,
		inc: newIncremental(g),
		rep: Report{Guarantee: g.Name(), Formula: g.Formula(), Holds: true},
	})
	return nil
}

// newIncremental returns a fresh engine for g, or nil when g is not one
// of the six forms that have one.
func newIncremental(g Guarantee) incremental {
	switch g := g.(type) {
	case Follows:
		return &incCopy{x: g.X, y: g.Y, last: map[string]tlPos{}}
	case MetricFollows:
		return &incCopy{x: g.X, y: g.Y, bounded: true, kappa: g.Kappa, last: map[string]tlPos{}}
	case Leads:
		return &incCopy{x: g.X, y: g.Y, leads: true, wait: g.Settle, last: map[string]tlPos{}}
	case MetricLeads:
		return &incCopy{x: g.X, y: g.Y, leads: true, bounded: true, kappa: g.Kappa, wait: g.Kappa, last: map[string]tlPos{}}
	case ExistsWithin:
		return &incExistsWithin{g: g, pairs: map[string]*ewPairState{}}
	case Invariant:
		return &incInvariant{g: g}
	}
	return nil
}

// Advance processes every obligation that has become decidable and
// refreshes the retention horizon.  Call it before CompactBefore: the
// horizon is only safe for a fold once the obligations behind it have
// been discharged.
func (m *Monitor) Advance(tr *trace.Trace) {
	end := tr.End()
	if end.IsZero() {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ix := indexFamilies(tr)
	h := end
	for _, e := range m.entries {
		e.inc.advance(tr, ix, end, &e.rep)
		if eh := e.inc.horizon(end); eh.Before(h) {
			h = eh
		}
	}
	m.horizon, m.ok = h, true
}

// Horizon returns the oldest instant a pending obligation may still
// examine, as of the last Advance.  Events strictly older can be folded
// without changing any verdict.  ok is false before the first Advance
// that saw events.
func (m *Monitor) Horizon() (time.Time, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.horizon, m.ok
}

// Reports renders the verdicts as if the trace ended now: accumulated
// obligations plus an end-of-trace pass on a clone of the pending
// state, so calling it never consumes obligations and the result equals
// what CheckAll reports on the full history.  The pass runs on an empty
// trace too: the initial state carries obligations of its own.
func (m *Monitor) Reports(tr *trace.Trace) []Report {
	end := tr.End()
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Report, len(m.entries))
	ix := indexFamilies(tr)
	for i, e := range m.entries {
		rep := e.rep
		rep.Violations = append([]string(nil), e.rep.Violations...)
		e.inc.clone().finish(tr, ix, end, &rep)
		out[i] = rep
	}
	return out
}

// monitorState is the wire form of Handoff/Resume: the re-registration
// path a fleet rebalance (or a cold start from checkpoint) uses to move
// pending obligations to a new monitor without re-reading history.
type monitorState struct {
	Entries []monEntryState `json:"entries"`
}

type monEntryState struct {
	Name    string          `json:"name"`
	Report  Report          `json:"report"`
	Horizon time.Time       `json:"horizon"`
	OK      bool            `json:"ok"`
	State   json.RawMessage `json:"state"`
}

// Handoff exports the monitor's pending state — per-guarantee markers,
// carried violation windows, and accumulated reports — for Resume on a
// monitor registered with the same guarantees.
func (m *Monitor) Handoff() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := monitorState{}
	for _, e := range m.entries {
		raw, err := e.inc.marshal()
		if err != nil {
			return nil, fmt.Errorf("guarantee: handoff %s: %w", e.g.Name(), err)
		}
		st.Entries = append(st.Entries, monEntryState{
			Name: e.g.Name(), Report: e.rep,
			Horizon: m.horizon, OK: m.ok, State: raw,
		})
	}
	return json.Marshal(st)
}

// Resume restores a Handoff into this monitor.  Every handed-off
// guarantee must already be Registered here (matched by Name); the
// restored markers mean re-registered windows pick up exactly where the
// exporting monitor stopped, never re-opening discharged obligations.
func (m *Monitor) Resume(raw []byte) error {
	var st monitorState
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("guarantee: resume: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	byName := map[string]*monEntry{}
	for _, e := range m.entries {
		byName[e.g.Name()] = e
	}
	for _, es := range st.Entries {
		e, ok := byName[es.Name]
		if !ok {
			return fmt.Errorf("guarantee: resume: %s is not registered on this monitor", es.Name)
		}
		if err := e.inc.unmarshal(es.State); err != nil {
			return fmt.Errorf("guarantee: resume %s: %w", es.Name, err)
		}
		e.rep = es.Report
		// A blob written before Report.Violated existed carries only the
		// capped strings.
		e.rep.Violated = max(e.rep.Violated, len(e.rep.Violations))
		if es.OK {
			if !m.ok || es.Horizon.Before(m.horizon) {
				m.horizon = es.Horizon
			}
			m.ok = true
		}
	}
	return nil
}

// EqualVerdicts reports whether two report sets agree guarantee by
// guarantee on verdict, obligation count and violation count, and — when
// the count is within the cap, so both sides kept every description — on
// the violation set.  Violation order depends on the order obligations
// were discharged in (per pair in one shot, per event across advances),
// so the descriptions compare as sorted multisets; past the cap each side
// keeps a different first maxViolations and only the counts compare.
func EqualVerdicts(a, b []Report) bool {
	if len(a) != len(b) {
		return false
	}
	index := map[string]Report{}
	for _, r := range a {
		index[r.Guarantee] = r
	}
	for _, r := range b {
		o, ok := index[r.Guarantee]
		if !ok || o.Holds != r.Holds || o.Checked != r.Checked || o.Violated != r.Violated {
			return false
		}
		if r.Violated > maxViolations {
			continue
		}
		va, vb := slices.Clone(o.Violations), slices.Clone(r.Violations)
		slices.Sort(va)
		slices.Sort(vb)
		if !slices.Equal(va, vb) {
			return false
		}
	}
	return true
}

// tlPos marks the last processed sample of one pair's anchor timeline;
// Set distinguishes "nothing processed" from the zero position, so the
// initial-value sample (zero time, seq 0) is processed exactly once.
type tlPos struct {
	At  time.Time `json:"at"`
	Seq uint64    `json:"seq"`
	Set bool      `json:"set"`
}

func (p tlPos) before(s trace.Sample) bool {
	if !p.Set {
		return true
	}
	if !p.At.Equal(s.At) {
		return p.At.Before(s.At)
	}
	return p.Seq < s.Seq
}

// unprocessed returns the suffix of tl strictly after marker p.
func unprocessed(tl []trace.Sample, p tlPos) []trace.Sample {
	i := sort.Search(len(tl), func(i int) bool { return p.before(tl[i]) })
	return tl[i:]
}

// incCopy is the checker of the four copy forms.  A form is one
// direction — follows anchors on Y's samples and looks back into X,
// leads anchors on X's and looks forward into Y — with or without a
// bound κ: Follows is MetricFollows with no lower window edge, Leads is
// MetricLeads with no deadline and Settle as the end-of-trace excuse.
type incCopy struct {
	x, y    string
	leads   bool
	bounded bool             // false: Follows, Leads
	kappa   time.Duration    // the bound
	wait    time.Duration    // leads: how long an anchor stays undecidable, Kappa or Settle
	last    map[string]tlPos // per anchor item, the last sample discharged
}

// held decides one follows anchor with the trace ending at end.
// Bounded, X "had the value within the window" when some maximal
// constant interval of X's timeline with that value intersects
// (t1−κ, t1]; unbounded, when X took it at or before the anchor in
// (time, seq) order.
func (c *incCopy) held(x, y data.ItemName, xtl []trace.Sample, ys trace.Sample, end time.Time, rep *Report) {
	for i, xs := range xtl {
		if !xs.V.Equal(ys.V) {
			continue
		}
		if !c.bounded {
			if !sampleBefore(ys, xs) {
				return
			}
			continue
		}
		// X held xs.V over [xs.At, next.At), or to the end of the trace
		// for the last sample.
		intEnd := end
		if i+1 < len(xtl) {
			intEnd = xtl[i+1].At
		}
		if !xs.At.After(ys.At) && intEnd.After(ys.At.Add(-c.kappa)) {
			return
		}
	}
	if c.bounded {
		rep.Violate("%s held %s at %s but %s did not hold it within %s before",
			y, ys.V, ys.At.Format(time.TimeOnly), x, c.kappa)
	} else {
		rep.Violate("%s held %s at %s which %s never held before",
			y, ys.V, ys.At.Format(time.TimeOnly), x)
	}
}

// reflected decides one leads anchor: Y took the value after the anchor
// in (time, seq) order and, bounded, no later than κ after it.  Every
// sample is tried, none skipped by position: a replica whose clock was
// stepped stamps its writes out of order, and a reflection that arrived
// in time must still be found among them.
func (c *incCopy) reflected(x, y data.ItemName, ytl []trace.Sample, xs trace.Sample, rep *Report) {
	deadline := xs.At.Add(c.kappa)
	for _, ys := range ytl {
		if sampleBefore(xs, ys) && !(c.bounded && ys.At.After(deadline)) && ys.V.Equal(xs.V) {
			return
		}
	}
	if c.bounded {
		rep.Violate("%s took %s at %s; %s did not reflect it within %s",
			x, xs.V, xs.At.Format(time.TimeOnly), y, c.kappa)
	} else {
		rep.Violate("%s took %s at %s but %s never reflected it",
			x, xs.V, xs.At.Format(time.TimeOnly), y)
	}
}

func (c *incCopy) run(tr *trace.Trace, ix *famIndex, end time.Time, rep *Report, settled func(trace.Sample) bool, mark bool) {
	for _, pair := range ix.pairs(c.x, c.y) {
		x, y := pair[0], pair[1]
		anchor, other := y, x
		if c.leads {
			anchor, other = x, y
		}
		key := anchor.Key()
		var otl []trace.Sample
		for _, s := range unprocessed(tr.Timeline(anchor), c.last[key]) {
			if !settled(s) {
				if mark {
					break // the marker only moves over a settled prefix
				}
				continue
			}
			if mark {
				c.last[key] = tlPos{At: s.At, Seq: s.Seq, Set: true}
			}
			if s.V.IsNull() {
				continue
			}
			if otl == nil {
				otl = tr.Timeline(other)
			}
			rep.Checked++
			if c.leads {
				c.reflected(x, y, otl, s, rep)
			} else {
				c.held(x, y, otl, s, end, rep)
			}
		}
	}
}

// advance: a follows anchor (no wait) is settled once it lies strictly
// before end — if the matching X interval is still open its overlap with
// (anchor−κ, anchor] can only grow, so deciding it against the current
// end equals deciding it against any later one.  A leads anchor is
// settled once its wait is strictly past: bounded, every Y sample that
// could satisfy it is then already in the trace (commit stamps are
// nondecreasing), so the verdict is final.
func (c *incCopy) advance(tr *trace.Trace, ix *famIndex, end time.Time, rep *Report) {
	c.run(tr, ix, end, rep, func(s trace.Sample) bool { return s.At.Add(c.wait).Before(end) }, true)
}

// finish: at the end of the trace every follows anchor is decided; a
// leads anchor whose wait extends past the end stays unchecked, its
// propagation window still open.
func (c *incCopy) finish(tr *trace.Trace, ix *famIndex, end time.Time, rep *Report) {
	horizon := end.Add(-c.wait)
	c.run(tr, ix, end, rep, func(s trace.Sample) bool { return !c.leads || !s.At.After(horizon) }, false)
}

// horizon: a follows anchor looks back κ.  Pending leads anchors sit
// within κ of the end, and deciding one looks back at most κ from its
// own instant.
func (c *incCopy) horizon(end time.Time) time.Time {
	if c.leads {
		return end.Add(-2 * c.kappa)
	}
	return end.Add(-c.kappa)
}

func (c *incCopy) clone() incremental {
	out := *c
	out.last = maps.Clone(c.last)
	return &out
}

func (c *incCopy) marshal() (json.RawMessage, error) { return json.Marshal(c.last) }
func (c *incCopy) unmarshal(raw json.RawMessage) error {
	return json.Unmarshal(raw, &c.last)
}

// ewPairState carries one pair's open violation window across advances
// (and across Handoff): the window start is a carried instant, so the
// events that opened it can be folded away without losing it.
type ewPairState struct {
	RefKey    string    `json:"ref"`
	TgtKey    string    `json:"tgt"`
	InViol    bool      `json:"in_viol"`
	ViolStart time.Time `json:"viol_start"`
}

// incExistsWithin tracks the violation predicate E(ref) ∧ ¬E(tgt) per
// pair through the event stream.  Only writes to a pair's own items can
// flip the predicate, so events dispatch by item key instead of every
// pair re-walking every event.
type incExistsWithin struct {
	g       ExistsWithin
	pairs   map[string]*ewPairState // pair key -> carried window
	lastSeq uint64
	haveSeq bool
	byItem  map[string][]*ewPairState // item key -> affected pairs (rebuilt, not serialized)
}

func (c *incExistsWithin) syncPairs(tr *trace.Trace, ix *famIndex, rep *Report) {
	changed := c.byItem == nil
	for _, pair := range ix.pairs(c.g.Ref, c.g.Target) {
		key := pair[0].Key()
		if _, ok := c.pairs[key]; ok {
			continue
		}
		st := &ewPairState{RefKey: pair[0].Key(), TgtKey: pair[1].Key()}
		c.pairs[key] = st
		rep.Checked++
		// The initial consider: before its first retained event the pair's
		// items hold their base values.
		c.consider(st, time.Time{}, tr.Initial(), rep)
		changed = true
	}
	if changed {
		c.byItem = map[string][]*ewPairState{}
		for _, st := range c.pairs {
			c.byItem[st.RefKey] = append(c.byItem[st.RefKey], st)
			if st.TgtKey != st.RefKey {
				c.byItem[st.TgtKey] = append(c.byItem[st.TgtKey], st)
			}
		}
	}
}

// hasKey is Interpretation.Has over a pre-rendered item key.
func hasKey(in data.Interpretation, key string) bool {
	v, ok := in[key]
	return ok && !v.IsNull()
}

func (c *incExistsWithin) consider(st *ewPairState, at time.Time, in data.Interpretation, rep *Report) {
	bad := hasKey(in, st.RefKey) && !hasKey(in, st.TgtKey)
	switch {
	case bad && !st.InViol:
		st.InViol = true
		st.ViolStart = at
	case !bad && st.InViol:
		st.InViol = false
		if at.Sub(st.ViolStart) > c.g.Kappa {
			rep.Violate("%s existed without %s for %s starting %s",
				st.RefKey, st.TgtKey, at.Sub(st.ViolStart), st.ViolStart.Format(time.TimeOnly))
		}
	}
}

func (c *incExistsWithin) advance(tr *trace.Trace, ix *famIndex, end time.Time, rep *Report) {
	c.syncPairs(tr, ix, rep)
	tr.WalkNewStates(func(e *event.Event, in data.Interpretation) bool {
		if c.haveSeq && e.Seq <= c.lastSeq {
			return true
		}
		c.lastSeq, c.haveSeq = e.Seq, true
		if !e.Desc.Op.IsWrite() {
			return true
		}
		var buf [64]byte
		for _, st := range c.byItem[string(e.Desc.Item.AppendKey(buf[:0]))] {
			c.consider(st, e.Time, in, rep)
		}
		return true
	})
}

func (c *incExistsWithin) finish(tr *trace.Trace, ix *famIndex, end time.Time, rep *Report) {
	c.advance(tr, ix, end, rep)
	for _, key := range sortedKeys(c.pairs) {
		st := c.pairs[key]
		if st.InViol && end.Sub(st.ViolStart) > c.g.Kappa {
			rep.Violate("%s existed without %s for %s starting %s (unresolved at end of trace)",
				st.RefKey, st.TgtKey, end.Sub(st.ViolStart), st.ViolStart.Format(time.TimeOnly))
		}
	}
}

func (c *incExistsWithin) horizon(end time.Time) time.Time { return end.Add(-c.g.Kappa) }

func (c *incExistsWithin) clone() incremental {
	out := &incExistsWithin{g: c.g, pairs: map[string]*ewPairState{}, lastSeq: c.lastSeq, haveSeq: c.haveSeq}
	for k, v := range c.pairs {
		cp := *v
		out.pairs[k] = &cp
	}
	return out
}

type ewWire struct {
	Pairs   map[string]*ewPairState `json:"pairs"`
	LastSeq uint64                  `json:"last_seq"`
	HaveSeq bool                    `json:"have_seq"`
}

func (c *incExistsWithin) marshal() (json.RawMessage, error) {
	return json.Marshal(ewWire{Pairs: c.pairs, LastSeq: c.lastSeq, HaveSeq: c.haveSeq})
}

func (c *incExistsWithin) unmarshal(raw json.RawMessage) error {
	var w ewWire
	if err := json.Unmarshal(raw, &w); err != nil {
		return err
	}
	if w.Pairs == nil {
		w.Pairs = map[string]*ewPairState{}
	}
	c.pairs, c.lastSeq, c.haveSeq = w.Pairs, w.LastSeq, w.HaveSeq
	c.byItem = nil // rebuilt on next syncPairs
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// incInvariant evaluates the predicate at the initial state and after
// every event, exactly once per event: the obligation at each state is
// decided on the spot, so the invariant needs no retained history at
// all.
type incInvariant struct {
	g       Invariant
	started bool
	lastSeq uint64
	haveSeq bool
}

func (c *incInvariant) evalAt(at time.Time, in data.Interpretation, rep *Report) {
	rep.Checked++
	ok, err := rule.EvalBool(c.g.Pred, envOf(in))
	if err != nil {
		rep.Violate("evaluation error at %s: %v", at.Format(time.TimeOnly), err)
		return
	}
	if !ok {
		rep.Violate("invariant false at %s in state %s", at.Format(time.TimeOnly), in)
	}
}

func (c *incInvariant) advance(tr *trace.Trace, ix *famIndex, end time.Time, rep *Report) {
	if !c.started {
		c.started = true
		c.evalAt(time.Time{}, tr.Initial(), rep)
	}
	tr.WalkNewStates(func(e *event.Event, in data.Interpretation) bool {
		if c.haveSeq && e.Seq <= c.lastSeq {
			return true
		}
		c.lastSeq, c.haveSeq = e.Seq, true
		c.evalAt(e.Time, in, rep)
		return true
	})
}

func (c *incInvariant) finish(tr *trace.Trace, ix *famIndex, end time.Time, rep *Report) {
	c.advance(tr, ix, end, rep)
}

func (c *incInvariant) horizon(end time.Time) time.Time { return end }

func (c *incInvariant) clone() incremental {
	cp := *c
	return &cp
}

type invWire struct {
	Started bool   `json:"started"`
	LastSeq uint64 `json:"last_seq"`
	HaveSeq bool   `json:"have_seq"`
}

func (c *incInvariant) marshal() (json.RawMessage, error) {
	return json.Marshal(invWire{Started: c.started, LastSeq: c.lastSeq, HaveSeq: c.haveSeq})
}

func (c *incInvariant) unmarshal(raw json.RawMessage) error {
	var w invWire
	if err := json.Unmarshal(raw, &w); err != nil {
		return err
	}
	c.started, c.lastSeq, c.haveSeq = w.Started, w.LastSeq, w.HaveSeq
	return nil
}
