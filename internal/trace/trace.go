// Package trace records executions — sequences of events with their before
// and after interpretations — and checks them against the seven validity
// properties of Appendix A.2.  Every simulated scenario in the test suite
// and the benchmark harness records a trace and re-validates it, replacing
// the paper's manual proofs with a machine check on every run.
//
// State is stored as a versioned store: one timeline of write events per
// data item plus the current interpretation, mutated in place.  Appending
// an event is O(1) in the number of items and events; the per-event old
// and new interpretations of the formal model are lazy views (Event.Old /
// Event.New) reconstructed from the timelines on demand.  A reader that
// wants a few items of a state does not build one: the point read
// (ValueBefore / ValueAfter, reached through Event.OldValue / NewValue)
// binary-searches the one item's timeline under the one shard's lock.
// The Appendix A.2 checker evaluates every rule condition and guard that
// way, so a pass costs what the rules read, not what the store holds.
// What still materializes a full interpretation: the checker's properties
// 2–3, which compare whole states, around events carrying eager overrides
// (plus one Initial per pass), and StateAt / WalkNewStates for the
// guarantee walkers.
//
// # Concurrency
//
// The store is lock-striped by item base: NewSharded splits the per-item
// timelines, the current state, and the event log across N shards, each
// behind its own mutex, so appends to unrelated item bases contend only
// on the atomic sequence counter.  Sequence numbers come from one atomic
// counter, which makes seq order a linearization of the execution: if
// Append(A) returns before Append(B) is called, A.Seq < B.Seq.  Readers
// that need the whole execution (Events, the checker) merge the shards by
// sequence number.
//
// AppendUnit is the serialized commit point every shell uses: it assigns
// one contiguous block of sequence numbers to a unit of events (a shell
// commits each event as a unit of one), stamps the unit's events with a
// single commit-time timestamp, and publishes them to their shards — all
// under one commit mutex, so units are atomic in seq order and
// commit-time order equals seq order, even with several shells (a fleet)
// committing to one shared trace.  DESIGN.md §9 documents why this
// preserves the checker's observed order.
package trace

import (
	"fmt"
	"hash/maphash"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/event"
)

// Trace is an append-only record of an execution.  It maintains the
// running interpretation and per-item write timelines so that appended
// events can answer for their old/new components per Appendix A.2
// properties 2 and 3.  Trace is safe for concurrent use.
type Trace struct {
	shards []traceShard
	mask   uint64
	seq    atomic.Uint64
	// Retention accounting (see compact.go).  baseSeq is the first
	// retained sequence number: every event below it has been folded into
	// the shard base interpretations by CompactBefore or Restore.
	baseSeq      atomic.Uint64
	baseNanos    atomic.Int64 // Time of the last folded event (UnixNano; 0 = none)
	prunedEvents atomic.Uint64
	prunedBytes  atomic.Uint64
	// commitMu serializes AppendUnit commits: sequence-block assignment,
	// commit-time stamping, shard publication, and the caller's post-commit
	// hook happen atomically with respect to other units.
	//cmlint:lockrank 20
	commitMu sync.Mutex
}

// traceShard is one lock stripe of the store: the events, per-item write
// timelines, and current-state slice for the item bases that hash here.
type traceShard struct {
	//cmlint:lockrank 30
	mu     sync.Mutex
	events []*event.Event // seq-ascending, all with Seq >= the trace's baseSeq
	// base is the folded initial interpretation for this shard's items:
	// the trace's initial state overlaid with every write that compaction
	// has pruned.  Lazy state reconstruction (stateAtSeq, Timeline) starts
	// from base instead of the construction-time initial, so folding a
	// prefix away never changes what the retained suffix reports.
	base data.Interpretation
	// timelines holds, per item key, the performed-write events on that
	// item in sequence order.  Write events are the only ones that change
	// state, so the timelines are a complete versioned store: the state
	// after any event is initial overlaid with each item's last write at
	// or before that sequence number.
	timelines map[string][]*event.Event
	state     data.Interpretation // current values of this shard's items
}

// shardSeed keys the base-name hash; one process-wide seed keeps shard
// assignment consistent across traces (tests rely only on determinism
// within a process).
var shardSeed = maphash.MakeSeed()

// New returns a trace starting from the given initial interpretation
// (cloned; nil means the empty state).
func New(initial data.Interpretation) *Trace {
	return NewSharded(initial, 1)
}

// NewSharded returns a trace whose storage is striped across n shards by
// item base (n is rounded up to a power of two; n < 1 means 1).  All read
// APIs behave identically to New; a fleet's member shells share a sharded
// trace so appends on unrelated item bases do not serialize on one lock.
func NewSharded(initial data.Interpretation, n int) *Trace {
	if initial == nil {
		initial = data.NewInterpretation()
	}
	shards := 1
	for shards < n {
		shards <<= 1
	}
	t := &Trace{
		shards: make([]traceShard, shards),
		mask:   uint64(shards - 1),
	}
	for i := range t.shards {
		t.shards[i].timelines = map[string][]*event.Event{}
		t.shards[i].base = data.NewInterpretation()
		t.shards[i].state = data.NewInterpretation()
	}
	// Seed each shard's base and state slices with the initial items that
	// hash to it, so Initial, Final and stateAtSeq are disjoint unions of
	// the shards.
	for key, v := range initial {
		sh := &t.shards[t.ShardOf(baseOfKey(key))]
		sh.base[key] = v
		sh.state[key] = v
	}
	return t
}

// Shards reports the number of lock stripes.
func (t *Trace) Shards() int { return len(t.shards) }

// ShardOf returns the shard index an item base maps to.
func (t *Trace) ShardOf(base string) int {
	if t.mask == 0 {
		return 0
	}
	return int(maphash.String(shardSeed, base) & t.mask)
}

// baseOfKey extracts the item base from an interpretation key
// (`salary1("e7")` → `salary1`; argument-free keys are their own base).
func baseOfKey(key string) string {
	for i := 0; i < len(key); i++ {
		if key[i] == '(' {
			return key[:i]
		}
	}
	return key
}

// shardForEvent picks the shard an event lands in: the shard of its item
// base, or shard 0 for item-less events (P and F descriptors).
func (t *Trace) shardForEvent(e *event.Event) *traceShard {
	if !e.Desc.Op.HasItem() {
		return &t.shards[0]
	}
	return &t.shards[t.ShardOf(e.Desc.Item.Base)]
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
// through AppendUnit, which draws both under one mutex; shells always do.
func (t *Trace) Append(e *event.Event) *event.Event {
	sh := t.shardForEvent(e)
	sh.mu.Lock()
	e.Seq = t.seq.Add(1) - 1
	t.appendLocked(sh, e)
	sh.mu.Unlock()
	return e
}

// appendLocked publishes an event into its shard; the caller holds the
// shard lock and has already assigned e.Seq.  Events normally arrive in
// seq order per shard (the seq draw happens under the shard lock, or
// under the commit mutex for units); the out-of-order guard keeps the
// shard's invariants if a single-append path races a unit commit into
// the same shard.
func (t *Trace) appendLocked(sh *traceShard, e *event.Event) {
	e.SetStateSource(t)
	if e.Desc.Op.IsWrite() {
		// One rendered key serves both maps: Interpretation.Set would
		// render it a second time.
		key := e.Desc.Item.Key()
		sh.timelines[key] = insertBySeq(sh.timelines[key], e)
		if v := e.Desc.Val; v.IsNull() {
			delete(sh.state, key)
		} else {
			sh.state[key] = v
		}
	}
	sh.events = insertBySeq(sh.events, e)
}

// insertBySeq appends e to a seq-ascending slice, falling back to a
// sorted insert when e arrived out of order (rare: a raw Append racing a
// unit commit into the same shard).
func insertBySeq(s []*event.Event, e *event.Event) []*event.Event {
	if n := len(s); n == 0 || s[n-1].Seq < e.Seq {
		return append(s, e)
	}
	i := sort.Search(len(s), func(i int) bool { return s[i].Seq > e.Seq })
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = e
	return s
}

// AppendUnit atomically commits a unit of work: it assigns the events one
// contiguous block of sequence numbers (in slice order), stamps every
// event with a single commit-time timestamp from now (when non-nil), and
// publishes them to their shards — all under the trace's commit mutex, so
// concurrent units are atomic in seq order and commit order equals both
// seq order and stamp order.  then, when non-nil, runs while the commit
// mutex is still held.  The shell commits each event as a unit of one
// with no hook, so then has no production caller; it stays because the
// benchmark module's trace.append_unit_ns drive calls AppendUnit with
// this signature (passing nil) and TestAppendUnitAtomicity passes a hook.
//
//cmlint:acquires 20, 30
func (t *Trace) AppendUnit(events []*event.Event, now func() time.Time, then func()) {
	if len(events) == 0 && then == nil {
		return
	}
	t.commitMu.Lock()
	defer t.commitMu.Unlock()
	if n := len(events); n > 0 {
		base := t.seq.Add(uint64(n)) - uint64(n)
		var stamp time.Time
		if now != nil {
			stamp = now()
		}
		for i, e := range events {
			e.Seq = base + uint64(i)
			if now != nil {
				e.Time = stamp
			}
		}
		for _, e := range events {
			sh := t.shardForEvent(e)
			sh.mu.Lock()
			t.appendLocked(sh, e)
			sh.mu.Unlock()
		}
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
// (or at seq, when inclusive).  O(items × log writes).  All shard locks
// are taken in index order for a consistent cross-shard snapshot.  For
// sequence points below the compaction cut the result is the folded
// base itself — the trace no longer distinguishes states inside the
// folded prefix.
func (t *Trace) stateAtSeq(seq uint64, inclusive bool) data.Interpretation {
	bound := seq
	if inclusive {
		bound++
	}
	out := data.NewInterpretation()
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for key, v := range sh.base {
			out[key] = v
		}
		for key, tl := range sh.timelines {
			// First write with w.Seq >= bound; the one before it is in force.
			j := sort.Search(len(tl), func(j int) bool { return tl[j].Seq >= bound })
			if j == 0 {
				continue
			}
			v := tl[j-1].Desc.Val
			if v.IsNull() {
				delete(out, key)
			} else {
				out[key] = v
			}
		}
		sh.mu.Unlock()
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
// O(log writes to item); only the item's own shard is locked.
func (t *Trace) valueAtSeq(bound uint64, item data.ItemName) data.Value {
	var buf [64]byte
	key := item.AppendKey(buf[:0])
	sh := &t.shards[t.ShardOf(item.Base)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	tl := sh.timelines[string(key)]
	j := sort.Search(len(tl), func(j int) bool { return tl[j].Seq >= bound })
	if j == 0 {
		return sh.base[string(key)]
	}
	return tl[j-1].Desc.Val
}

// Find returns the recorded event with the given sequence number, or nil.
// Each shard's event list is seq-ascending, so the lookup is a binary
// search per shard.  Deployments that share one trace across shells use
// this to re-link a firing's trigger after the message lost its
// in-process event pointer (a journaled replay, which crosses a process
// boundary in spirit even when it does not in fact).
func (t *Trace) Find(seq uint64) *event.Event {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		j := sort.Search(len(sh.events), func(j int) bool { return sh.events[j].Seq >= seq })
		if j < len(sh.events) && sh.events[j].Seq == seq {
			e := sh.events[j]
			sh.mu.Unlock()
			return e
		}
		sh.mu.Unlock()
	}
	return nil
}

// Events returns the recorded events in sequence order.  For a single
// shard the slice is a read-only snapshot shared with the trace (events
// are appended once and never mutated, and the capacity is capped so a
// caller's append cannot clobber later records) — experiment loops call
// this on every lookup, so the common read path must not copy the whole
// history each time.  A sharded trace merges its stripes into a fresh
// slice.
func (t *Trace) Events() []*event.Event {
	if len(t.shards) == 1 {
		sh := &t.shards[0]
		sh.mu.Lock()
		out := sh.events[:len(sh.events):len(sh.events)]
		sh.mu.Unlock()
		return out
	}
	parts := make([][]*event.Event, len(t.shards))
	total := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		parts[i] = sh.events[:len(sh.events):len(sh.events)]
		sh.mu.Unlock()
		total += len(parts[i])
	}
	return mergeBySeq(parts, total)
}

// mergeBySeq k-way merges seq-ascending event slices.
func mergeBySeq(parts [][]*event.Event, total int) []*event.Event {
	out := make([]*event.Event, 0, total)
	idx := make([]int, len(parts))
	for len(out) < total {
		best := -1
		var bestSeq uint64
		for i, p := range parts {
			if idx[i] >= len(p) {
				continue
			}
			if s := p[idx[i]].Seq; best < 0 || s < bestSeq {
				best, bestSeq = i, s
			}
		}
		out = append(out, parts[best][idx[best]])
		idx[best]++
	}
	return out
}

// Len reports the number of recorded events.
func (t *Trace) Len() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		n += len(sh.events)
		sh.mu.Unlock()
	}
	return n
}

// Initial returns the interpretation the retained suffix starts from:
// the construction-time initial state for an uncompacted trace, or the
// folded base (initial plus every pruned write) once CompactBefore has
// run.  Shard bases are disjoint by item base, so the result is their
// union.
func (t *Trace) Initial() data.Interpretation {
	out := data.NewInterpretation()
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for k, v := range sh.base {
			out[k] = v
		}
		sh.mu.Unlock()
	}
	return out
}

// Final returns the interpretation after the last recorded event.  Shard
// states are disjoint by item base, so the result is their union.
func (t *Trace) Final() data.Interpretation {
	out := data.NewInterpretation()
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for k, v := range sh.state {
			out[k] = v
		}
		sh.mu.Unlock()
	}
	return out
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
// write timeline is scanned — O(writes to item), not O(events) — and only
// the item's own shard is locked.
func (t *Trace) Timeline(item data.ItemName) []Sample {
	sh := &t.shards[t.ShardOf(item.Base)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var buf [64]byte
	key := item.AppendKey(buf[:0])
	out := []Sample{{V: sh.base[string(key)]}}
	for _, e := range sh.timelines[string(key)] {
		v := e.Desc.Val
		if !v.Equal(out[len(out)-1].V) {
			out = append(out, Sample{At: e.Time, Seq: e.Seq, V: v})
		}
	}
	return out
}

// Writes returns the performed-write events (W and Ws) on item, in order.
func (t *Trace) Writes(item data.ItemName) []*event.Event {
	sh := &t.shards[t.ShardOf(item.Base)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var buf [64]byte
	tl := sh.timelines[string(item.AppendKey(buf[:0]))]
	if len(tl) == 0 {
		return nil
	}
	return append([]*event.Event(nil), tl...)
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
	var last *event.Event
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		if n := len(sh.events); n > 0 {
			if e := sh.events[n-1]; last == nil || e.Seq > last.Seq {
				last = e
			}
		}
		sh.mu.Unlock()
	}
	if last == nil {
		return time.Time{}
	}
	return last.Time
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
