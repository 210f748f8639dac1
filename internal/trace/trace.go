// Package trace records executions — sequences of events with their before
// and after interpretations — and checks them against the seven validity
// properties of Appendix A.2.  Every simulated scenario in the test suite
// and the benchmark harness records a trace and re-validates it, replacing
// the paper's manual proofs with a machine check on every run.
//
// State is stored as a versioned store: the folded base interpretation
// plus one timeline of write events per data item, whose key is rendered
// once, at the item's first write.  Appending an event is O(1) in the
// number of items and events, and a write to an item that already has a
// timeline renders its key into a stack buffer and finds the timeline
// with m[string(buf)], which allocates nothing.  The per-event old
// and new interpretations of the formal model are lazy views (Event.Old /
// Event.New) reconstructed from the timelines on demand.  A reader that
// wants a few items of a state does not build one: the point read
// (ValueBefore / ValueAfter, reached through Event.OldValue / NewValue)
// binary-searches the one item's timeline.
// The Appendix A.2 checker evaluates every rule condition and guard that
// way, so a pass costs what the rules read, not what the store holds.
// What still materializes a full interpretation: the checker's properties
// 2–3, which compare whole states, around events carrying eager overrides
// (plus one Initial per pass), StateAt / WalkNewStates for the guarantee
// walkers, and Final / Checkpoint, which overlay the base with each
// timeline's last write.
//
// # Concurrency
//
// One mutex guards the whole store: the event log, the per-item
// timelines and the folded base.  Every sequence number is drawn under
// it, so the event log is always seq-ascending and gap-free (event i of a
// snapshot has Seq BaseSeq()+i), seq order is a linearization of the
// execution (if Append(A) returns before Append(B) is called, A.Seq <
// B.Seq), and every read — Events, Find, the checker's point reads —
// sees a seq prefix of the execution.
//
// AppendUnit is the commit point every shell uses: it assigns one
// contiguous block of sequence numbers to a unit of events (a shell
// commits each event as a unit of one), stamps the unit's events with a
// single commit-time timestamp, and publishes them — all under the one
// mutex, so units are atomic in seq order and commit-time order equals
// seq order, even with several shells (a fleet) committing to one shared
// trace.  DESIGN.md §9 documents why this preserves the checker's
// observed order, and why the store is not striped.
package trace

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/event"
)

// Trace is an append-only record of an execution.  It maintains per-item
// write timelines so that appended events can answer for their old/new
// components per Appendix A.2 properties 2 and 3.  Trace is safe for
// concurrent use.
type Trace struct {
	// mu guards every field below.  AppendUnit holds it across sequence
	// assignment, commit-time stamping, publication and the caller's
	// post-commit hook, so units are atomic with respect to each other
	// and to every reader.
	//cmlint:lockrank 20
	mu     sync.Mutex
	seq    uint64         // next sequence number to assign
	events []*event.Event // seq-ascending and gap-free from baseSeq
	// base is the folded initial interpretation: the trace's initial
	// state overlaid with every write that compaction has pruned.  Lazy
	// state reconstruction (stateAtSeq, Timeline) starts from base
	// instead of the construction-time initial, so folding a prefix away
	// never changes what the retained suffix reports.
	base data.Interpretation
	// timelines holds, per item key, the performed-write events on that
	// item in sequence order.  Write events are the only ones that change
	// state, so the timelines are a complete versioned store: the state
	// after any event is base overlaid with each item's last write at or
	// before that sequence number.
	timelines map[string]timeline
	// Retention accounting (see compact.go).  baseSeq is the first
	// retained sequence number: every event below it has been folded into
	// base by CompactBefore or Restore.
	baseSeq      uint64
	baseNanos    int64 // Time of the last folded event (UnixNano; 0 = none)
	prunedEvents uint64
	prunedBytes  uint64
}

// New returns a trace starting from the given initial interpretation
// (cloned; nil means the empty state).
func New(initial data.Interpretation) *Trace {
	return &Trace{
		base:      initial.Clone(),
		timelines: map[string]timeline{},
	}
}

// timeline is one item's performed writes in sequence order, never empty,
// with the item's key as rendered at its first write.  The map holds it by
// value and is reassigned under key, so a later write allocates no key.
type timeline struct {
	key    string
	writes []*event.Event
}

// Append records the event, assigning its sequence number and wiring up
// its old and new interpretation views from the running state.  It
// returns the event for convenience.  The caller fills Time, Site, Desc,
// Rule and Trigger; the state views and Seq are owned by the trace.
//
// Append is for a single writer (tests, drivers replaying a recorded
// execution).  The caller stamped e before the seq is drawn here, so
// concurrent writers can commit in an order that inverts Time against Seq
// — an Appendix A.2 property-1 violation.  Writers sharing a trace commit
// through AppendUnit, which draws both under the trace mutex; shells
// always do.
func (t *Trace) Append(e *event.Event) *event.Event {
	t.mu.Lock()
	t.appendLocked(e)
	t.mu.Unlock()
	return e
}

// appendLocked assigns e the next sequence number and publishes it; the
// caller holds the trace mutex.
func (t *Trace) appendLocked(e *event.Event) {
	e.Seq = t.seq
	t.seq++
	e.SetStateSource(t)
	if e.Desc.Op.IsWrite() {
		var buf [64]byte
		key := e.Desc.Item.AppendKey(buf[:0])
		tl, ok := t.timelines[string(key)]
		if !ok {
			// Key, not string(key): an argument-free item's key is its
			// base name, which costs nothing to keep.
			tl.key = e.Desc.Item.Key()
		}
		tl.writes = append(tl.writes, e)
		t.timelines[tl.key] = tl
	}
	t.events = append(t.events, e)
}

// AppendUnit atomically commits a unit of work: it assigns the events one
// contiguous block of sequence numbers (in slice order), stamps every
// event with a single commit-time timestamp from now (when non-nil), and
// publishes them — all under the trace mutex, so concurrent units are
// atomic in seq order and commit order equals both seq order and stamp
// order.  then, when non-nil, runs while the mutex is still held, so it
// must not call back into the trace.  The shell commits each event as a
// unit of one with no hook, so then has no production caller; it stays
// because the benchmark module's trace.append_unit_ns drive calls
// AppendUnit with this signature (passing nil) and
// TestAppendUnitAtomicity passes a hook.
//
//cmlint:acquires 20
func (t *Trace) AppendUnit(events []*event.Event, now func() time.Time, then func()) {
	if len(events) == 0 && then == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(events) > 0 && now != nil {
		stamp := now()
		for _, e := range events {
			e.Time = stamp
		}
	}
	for _, e := range events {
		t.appendLocked(e)
	}
	if then != nil {
		then()
	}
}

// StateBefore implements event.StateSource: the interpretation in force
// before event seq.
func (t *Trace) StateBefore(seq uint64) data.Interpretation {
	return t.stateAtSeq(seq, false)
}

// StateAfter implements event.StateSource: the interpretation in force
// after event seq.
func (t *Trace) StateAfter(seq uint64) data.Interpretation {
	return t.stateAtSeq(seq, true)
}

// stateAtSeq materializes the interpretation at a sequence point: the
// folded base overlaid with each item's last retained write before seq
// (or at seq, when inclusive).  O(items × log writes).  For sequence
// points below the compaction cut the result is the folded base itself —
// the trace no longer distinguishes states inside the folded prefix.
func (t *Trace) stateAtSeq(seq uint64, inclusive bool) data.Interpretation {
	bound := seq
	if inclusive {
		bound++
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.base.Clone()
	for key, tl := range t.timelines {
		// First write with w.Seq >= bound; the one before it is in force.
		j := sort.Search(len(tl.writes), func(j int) bool { return tl.writes[j].Seq >= bound })
		if j == 0 {
			continue
		}
		v := tl.writes[j-1].Desc.Val
		if v.IsNull() {
			delete(out, key)
		} else {
			out[key] = v
		}
	}
	return out
}

// currentLocked is the interpretation after the last recorded event: the
// base overlaid with each timeline's last write, in a map sized for both
// up front.  The caller holds the trace mutex.
func (t *Trace) currentLocked() data.Interpretation {
	out := make(data.Interpretation, len(t.base)+len(t.timelines))
	for key, v := range t.base {
		out[key] = v
	}
	for key, tl := range t.timelines {
		if v := tl.writes[len(tl.writes)-1].Desc.Val; v.IsNull() {
			delete(out, key)
		} else {
			out[key] = v
		}
	}
	return out
}

// ValueBefore implements event.StateSource: StateBefore(seq).Get(item)
// as a point read.
func (t *Trace) ValueBefore(seq uint64, item data.ItemName) data.Value {
	return t.valueAtSeq(seq, item)
}

// ValueAfter implements event.StateSource: StateAfter(seq).Get(item) as a
// point read.
func (t *Trace) ValueAfter(seq uint64, item data.ItemName) data.Value {
	return t.valueAtSeq(seq+1, item)
}

// valueAtSeq is stateAtSeq for one item: the value of the item's last
// retained write with Seq < bound, or the folded base when there is none.
// O(log writes to item).
func (t *Trace) valueAtSeq(bound uint64, item data.ItemName) data.Value {
	var buf [64]byte
	key := item.AppendKey(buf[:0])
	t.mu.Lock()
	defer t.mu.Unlock()
	tl := t.timelines[string(key)].writes
	j := sort.Search(len(tl), func(j int) bool { return tl[j].Seq >= bound })
	if j == 0 {
		return t.base[string(key)]
	}
	return tl[j-1].Desc.Val
}

// Find returns the recorded event with the given sequence number, or nil
// when seq is folded away or not yet assigned.  The event log is gap-free
// from BaseSeq, so the lookup is an index.  Deployments that share one
// trace across shells use this to re-link a firing's trigger after the
// message lost its in-process event pointer (a journaled replay, which
// crosses a process boundary in spirit even when it does not in fact).
func (t *Trace) Find(seq uint64) *event.Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	if seq < t.baseSeq || seq-t.baseSeq >= uint64(len(t.events)) {
		return nil
	}
	return t.events[seq-t.baseSeq]
}

// Events returns the recorded events in sequence order: a read-only
// snapshot shared with the trace (events are appended once and never
// mutated, and the capacity is capped so a caller's append cannot clobber
// later records).  Experiment loops call this on every lookup, so the
// read path must not copy the whole history each time.
func (t *Trace) Events() []*event.Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events[:len(t.events):len(t.events)]
}

// Len reports the number of recorded events.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Initial returns the interpretation the retained suffix starts from:
// the construction-time initial state for an uncompacted trace, or the
// folded base (initial plus every pruned write) once CompactBefore has
// run.
func (t *Trace) Initial() data.Interpretation {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.base.Clone()
}

// Final returns the interpretation after the last recorded event.
func (t *Trace) Final() data.Interpretation {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.currentLocked()
}

// StateAt returns the interpretation in force at instant at: the new
// interpretation of the last event with Time <= at, or the initial
// interpretation when no event has happened yet.  Events at the same
// instant apply in sequence order, so the returned state reflects all of
// them.
func (t *Trace) StateAt(at time.Time) data.Interpretation {
	events := t.Events()
	// Mirror the historical scan: the state is that of the last event
	// before the first one whose time exceeds at (times are normally
	// non-decreasing, but a violated trace may not be — the checker still
	// sees the same state the eager representation would have recorded).
	last := -1
	for i, e := range events {
		if e.Time.After(at) {
			break
		}
		last = i
	}
	if last < 0 {
		return t.Initial()
	}
	return t.stateAtSeq(events[last].Seq, true)
}

// WalkNewStates calls fn for each recorded event in sequence order with
// the interpretation the event left in force (its New view), maintaining
// one running reconstruction so the whole walk costs O(events + writes)
// instead of materializing a fresh interpretation per event.  The map
// passed to fn is reused between calls: fn must not retain or mutate it.
// fn returning false stops the walk.  Events carrying eager state
// overrides yield those instead, exactly as Event.New would.
func (t *Trace) WalkNewStates(fn func(e *event.Event, in data.Interpretation) bool) {
	events := t.Events()
	cur := t.Initial()
	for _, e := range events {
		if e.Desc.Op.IsWrite() {
			cur.Set(e.Desc.Item, e.Desc.Val)
		}
		in := cur
		if e.HasEagerStates() {
			in = e.New()
		}
		if !fn(e, in) {
			return
		}
	}
}

// Sample is one point in a value timeline.
type Sample struct {
	At  time.Time
	Seq uint64
	V   data.Value
}

// Timeline returns the distinct values item held over the execution, in
// order, starting with its initial value.  Consecutive equal values are
// collapsed; the guarantee checkers consume this.  Only the item's own
// write timeline is scanned — O(writes to item), not O(events).
func (t *Trace) Timeline(item data.ItemName) []Sample {
	var buf [64]byte
	key := item.AppendKey(buf[:0])
	t.mu.Lock()
	defer t.mu.Unlock()
	out := []Sample{{V: t.base[string(key)]}}
	for _, e := range t.timelines[string(key)].writes {
		v := e.Desc.Val
		if !v.Equal(out[len(out)-1].V) {
			out = append(out, Sample{At: e.Time, Seq: e.Seq, V: v})
		}
	}
	return out
}

// Matching returns events whose descriptor matches the template.
func (t *Trace) Matching(tpl event.Template) []*event.Event {
	var out []*event.Event
	for _, e := range t.Events() {
		if _, ok := tpl.Match(e.Desc); ok {
			out = append(out, e)
		}
	}
	return out
}

// End returns the time of the last event, or the zero time for an empty
// trace.
func (t *Trace) End() time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.events); n > 0 {
		return t.events[n-1].Time
	}
	return time.Time{}
}

// String renders the whole trace, one event per line, for debugging.
func (t *Trace) String() string {
	var b []byte
	for _, e := range t.Events() {
		b = append(b, e.String()...)
		b = append(b, '\n')
	}
	return string(b)
}

// Violation reports one failure of a validity property or rule obligation.
type Violation struct {
	Property int    // Appendix A.2 property number 1..7
	Metric   bool   // true when the obligation was met but late (a metric failure, Section 5)
	Seq      uint64 // sequence number of the offending event
	Msg      string
}

func (v Violation) String() string {
	kind := "logical"
	if v.Metric {
		kind = "metric"
	}
	return fmt.Sprintf("property %d (%s) at #%d: %s", v.Property, kind, v.Seq, v.Msg)
}
