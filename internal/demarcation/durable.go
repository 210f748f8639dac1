// Durable limits.  The demarcation invariant X ≤ Lx ≤ Ly ≤ Y is only as
// strong as the limits' storage: if a crash forgets that this side gave
// slack away, the restarted agent resurrects its old limit and the global
// ordering silently breaks.  EnableDurable journals every (value, limit)
// transition, so a restarted side resumes exactly the slack position it
// had granted — the invariant survives the crash.  In-flight limit-change
// requests are not persisted here; they live in the transport journal and
// are replayed by the reliability layer, and a grant that arrives for a
// request id the new incarnation does not recognise still moves the limit
// (the safe direction) — only the waiting application callback is lost.

package demarcation

import (
	"encoding/json"
	"fmt"

	"cmtk/internal/durable"
)

// dStateRec is the journal record type for one agent-state transition;
// its data is a full JSON dState, so replay is last-record-wins and a
// checkpoint snapshot is the same encoding.
const dStateRec byte = 1

type dState struct {
	Value int64
	Lim   int64
}

// durCheckpointBytes is the journal size that triggers compaction.
const durCheckpointBytes = 64 << 10

// EnableDurable makes the agent's value and limit crash-recoverable in
// the store (log "demarc-"+site).  When prior state is found it is
// installed and reported as recovered=true, and a later Init keeps the
// recovered position instead of resetting it.  Call it after NewAgent and
// before Init or any traffic.
func (a *Agent) EnableDurable(store *durable.Store) (recovered bool, err error) {
	lg, rec, err := store.Log("demarc-" + a.site)
	if err != nil {
		return false, err
	}
	if rec == nil {
		return false, fmt.Errorf("demarcation: durable log for %s already in use", a.site)
	}
	st, found, err := decodeState(rec)
	if err != nil {
		return false, err
	}
	a.mu.Lock()
	if a.dur != nil {
		a.mu.Unlock()
		return false, fmt.Errorf("demarcation: durable state already enabled")
	}
	a.dur = lg
	if found {
		a.value, a.lim = st.Value, st.Lim
		a.recovered = true
	}
	a.checkpointLocked()
	a.mu.Unlock()
	store.OnClose(func() error {
		a.mu.Lock()
		defer a.mu.Unlock()
		a.checkpointLocked()
		return a.durErr
	})
	return found, nil
}

// decodeState folds a recovery into the latest persisted state.
func decodeState(rec *durable.Recovery) (st dState, found bool, err error) {
	if rec.Snapshot != nil {
		if err := json.Unmarshal(rec.Snapshot, &st); err != nil {
			return st, false, fmt.Errorf("demarcation: decoding snapshot: %w", err)
		}
		found = true
	}
	for _, r := range rec.Records {
		if r.Type != dStateRec {
			continue
		}
		if err := json.Unmarshal(r.Data, &st); err != nil {
			return st, false, fmt.Errorf("demarcation: decoding state record: %w", err)
		}
		found = true
	}
	return st, found, nil
}

// persistLocked journals the current (value, limit) under a.mu.  Errors
// latch, like a dead disk.
func (a *Agent) persistLocked() {
	if a.dur == nil || a.durErr != nil {
		return
	}
	b, err := json.Marshal(dState{Value: a.value, Lim: a.lim})
	if err == nil {
		err = a.dur.Append(dStateRec, b)
	}
	if err != nil {
		a.durErr = err
		return
	}
	if a.dur.WALSize() >= durCheckpointBytes {
		a.checkpointLocked()
	}
}

func (a *Agent) checkpointLocked() {
	if a.dur == nil || a.durErr != nil {
		return
	}
	b, err := json.Marshal(dState{Value: a.value, Lim: a.lim})
	if err == nil {
		err = a.dur.Checkpoint(b)
	}
	if err != nil {
		a.durErr = err
	}
}

// DurableError reports the first journaling failure, if any.
//
//cmlint:allow deadsurface(production reads this latch through its OnClose hook; tests read it here)
func (a *Agent) DurableError() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.durErr
}
