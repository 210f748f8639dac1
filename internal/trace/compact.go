// Guarantee-aware compaction: the trace folds event prefixes that can
// no longer change any verdict into its base interpretation, making
// trace memory proportional to the retention horizon instead of to the
// execution's age.
//
// The horizon comes from the caller (normally guarantee.Monitor): any
// event older than the widest pending guarantee window — plus
// demarcation/strategy holds — can never participate in a check again,
// so its only remaining contribution is its write effect, which the
// fold preserves exactly.  This is the amalgamated-knowledge-base move:
// one certified base state plus one bounded delta log.
//
// Locking: CompactBefore, Checkpoint and Restore hold the trace mutex
// (rank 20) for their whole body, so each is atomic with respect to
// every append and every read.  DESIGN.md §12 documents the retention
// model; cmlint's lockorder analyzer machine-checks the rank annotations.
package trace

import (
	"fmt"
	"sort"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/event"
)

// CompactStats reports what one CompactBefore call folded away.
type CompactStats struct {
	PrunedEvents int       // events removed from the log this call
	PrunedBytes  uint64    // estimated heap bytes those events pinned
	CutSeq       uint64    // first retained sequence number after the call
	CutTime      time.Time // time of the last folded event (zero when none)
	Retained     int       // events still held after the call
}

// CompactBefore folds away every event the trace can prove irrelevant
// to instants at or after horizon, and returns what it pruned.  hold
// widens the band of folded events that keep materialized state views:
// folded events young enough that a retained (or soon-to-be-appended)
// event may still reference them as its trigger get eager old/new maps
// before their timelines are cut, so Appendix A.2 provenance checks on
// the retained suffix keep answering exactly as before.  Callers pass
// the widest rule δ plus any demarcation hold.
//
// The cut is a sequence prefix: everything before the first event at or
// after horizon.  No retained event is ordered before a pruned one, so
// state reconstruction from the new base stays exact for every retained
// sequence point.
//
// The call is a no-op (zero stats) when nothing is old enough to fold.
//
//cmlint:acquires 20
func (t *Trace) CompactBefore(horizon time.Time, hold time.Duration) CompactStats {
	t.mu.Lock()
	defer t.mu.Unlock()

	// The event log is time-nondecreasing in any healthy trace; the scan
	// is linear in the pruned prefix, so compaction costs O(pruned), not
	// O(retained).
	p := 0
	for p < len(t.events) && t.events[p].Time.Before(horizon) {
		p++
	}
	if p == 0 {
		return CompactStats{CutSeq: t.baseSeq, Retained: len(t.events)}
	}
	pruned := t.events[:p]
	cut := t.baseSeq + uint64(p)

	// Folded events that must keep materialized state views: those
	// inside the hold band plus any already referenced as a trigger by a
	// retained event.
	keep := map[*event.Event]bool{}
	for _, e := range t.events[p:] {
		if tr := e.Trigger; tr != nil && tr.Seq < cut && !tr.HasEagerStates() {
			keep[tr] = true
		}
	}
	bandStart := horizon.Add(-hold)

	// Walk the pruned prefix in sequence order, materializing eager views
	// where needed, severing trigger chains so the folded events stop
	// pinning the history behind them, and accounting bytes.  The running
	// state ends as the new base.
	state := t.base.Clone()
	touched := map[string]bool{}
	var bytes uint64
	var cutTime time.Time
	for _, e := range pruned {
		need := !e.HasEagerStates() && (keep[e] || !e.Time.Before(bandStart))
		var old data.Interpretation
		if need {
			old = state.Clone()
		}
		if e.Desc.Op.IsWrite() {
			state.Set(e.Desc.Item, e.Desc.Val)
			touched[e.Desc.Item.Key()] = true
		}
		if need {
			e.SetStates(old, state.Clone())
		}
		e.Trigger = nil
		bytes += eventFootprint(e)
		cutTime = e.Time
	}

	// Cut the event and timeline prefixes (copying, so the backing arrays
	// of the folded prefix are released) and publish the fold.
	t.base = state
	t.events = append(make([]*event.Event, 0, len(t.events)-p), t.events[p:]...)
	for key := range touched {
		tl := t.timelines[key]
		q := sort.Search(len(tl.writes), func(j int) bool { return tl.writes[j].Seq >= cut })
		if q == len(tl.writes) {
			delete(t.timelines, key)
		} else if q > 0 {
			tl.writes = append(make([]*event.Event, 0, len(tl.writes)-q), tl.writes[q:]...)
			t.timelines[key] = tl
		}
	}
	t.baseSeq = cut
	if !cutTime.IsZero() {
		t.baseNanos = cutTime.UnixNano()
	}
	t.prunedEvents += uint64(p)
	t.prunedBytes += bytes
	return CompactStats{
		PrunedEvents: p,
		PrunedBytes:  bytes,
		CutSeq:       cut,
		CutTime:      cutTime,
		Retained:     len(t.events),
	}
}

// eventFootprint estimates the heap bytes one recorded event pins: the
// struct, its descriptor strings, a timeline slot, and any eager state
// maps.  An estimate is enough — the accounting exists so operators can
// see pruning keep pace with recording, not to balance an allocator.
func eventFootprint(e *event.Event) uint64 {
	n := 176 + len(e.Site) + len(e.Host) + len(e.Desc.Item.Base) + 16*len(e.Desc.Item.Args)
	if e.HasEagerStates() {
		n += 48 * (len(e.Old()) + len(e.New()))
	}
	return uint64(n)
}

// BaseSeq returns the first retained sequence number: 0 until the first
// compaction or restore, the fold cut afterwards.
func (t *Trace) BaseSeq() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.baseSeq
}

func (t *Trace) baseTimeLocked() time.Time {
	if t.baseNanos == 0 {
		return time.Time{}
	}
	return time.Unix(0, t.baseNanos)
}

// Pruned reports the cumulative folded-away totals: events and their
// estimated bytes.  Len() counts only retained events, so the lifetime
// event count is Pruned events + Len().
func (t *Trace) Pruned() (events, bytes uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.prunedEvents, t.prunedBytes
}

// TotalEvents reports the lifetime number of recorded events, folded or
// retained.
func (t *Trace) TotalEvents() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.prunedEvents + uint64(len(t.events))
}

// CheckpointState is the trace's exportable fold: everything a restart
// needs to resume recording without the history.  Base maps item keys
// to literal renderings of their values at the checkpoint instant;
// NextSeq is where sequence numbering resumes so restored executions
// never reuse a folded sequence number.
type CheckpointState struct {
	NextSeq      uint64            `json:"next_seq"`
	BaseTime     time.Time         `json:"base_time"`
	PrunedEvents uint64            `json:"pruned_events"`
	PrunedBytes  uint64            `json:"pruned_bytes"`
	Base         map[string]string `json:"base"`
}

// Checkpoint captures the full current state as a restorable fold: the
// final interpretation, the next sequence number, and the lifetime
// accounting (everything up to the checkpoint counts as folded once a
// restart restores from it).  Taken under the trace mutex so the
// snapshot sits on a unit boundary.
//
//cmlint:acquires 20
func (t *Trace) Checkpoint() CheckpointState {
	t.mu.Lock()
	defer t.mu.Unlock()
	state := t.currentLocked()
	cs := CheckpointState{
		NextSeq:      t.seq,
		BaseTime:     t.baseTimeLocked(),
		PrunedEvents: t.prunedEvents + uint64(len(t.events)),
		PrunedBytes:  t.prunedBytes,
		Base:         make(map[string]string, len(state)),
	}
	for k, v := range state {
		cs.Base[k] = v.String()
	}
	if n := len(t.events); n > 0 && !t.events[n-1].Time.IsZero() {
		cs.BaseTime = t.events[n-1].Time
	}
	return cs
}

// Restore seeds an empty trace from a checkpoint: the base becomes the
// checkpointed interpretation, sequence numbering resumes at NextSeq, and
// the fold accounting carries over.  Only a trace that has recorded
// nothing can be restored.
//
//cmlint:acquires 20
func (t *Trace) Restore(cs CheckpointState) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.seq != 0 || t.prunedEvents != 0 {
		return fmt.Errorf("trace: restore into a non-empty trace (seq=%d)", t.seq)
	}
	for key, lit := range cs.Base {
		item, err := data.ParseItemName(key)
		if err != nil {
			return fmt.Errorf("trace: checkpoint item %q: %w", key, err)
		}
		v, err := data.ParseLiteral(lit)
		if err != nil {
			return fmt.Errorf("trace: checkpoint value %q for %q: %w", lit, key, err)
		}
		t.base.Set(item, v)
	}
	t.seq = cs.NextSeq
	t.baseSeq = cs.NextSeq
	if !cs.BaseTime.IsZero() {
		t.baseNanos = cs.BaseTime.UnixNano()
	}
	t.prunedEvents = cs.PrunedEvents
	t.prunedBytes = cs.PrunedBytes
	return nil
}
