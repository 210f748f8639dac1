// Durable CM-private state.  Section 3.2 gives each CM-Shell private data
// items — constraint variables (Cx), flags, timestamps (Tb) — that exist
// nowhere but in the shell, so a crash without persistence silently
// erases them and every strategy built on them (banking sweeps, alarm
// monitors, demarcation limits) restarts from nothing.  EnableDurable
// journals every private write to a durable.Log and restores the
// interpretation on the next start, making the shell's auxiliary state as
// crash-proof as the databases it manages.

package shell

import (
	"encoding/json"
	"fmt"

	"cmtk/internal/data"
	"cmtk/internal/durable"
)

// pSetRec is the journal record type for one private-item write; its data
// is JSON {K: item key, V: literal encoding of the value}.
const pSetRec byte = 1

type pSet struct {
	K string
	V string
}

// durCheckpointBytes is the journal size that triggers compaction.
const durCheckpointBytes = 256 << 10

// EnableDurable makes the shell's private data crash-recoverable: the
// interpretation persisted in the store (log "shell-"+id) is restored,
// and every subsequent private write is journaled before the shell acts
// on it.  Call it after New and before Start or any traffic.  It returns
// the number of restored items.
func (s *Shell) EnableDurable(store *durable.Store) (int, error) {
	lg, rec, err := store.Log("shell-" + s.id)
	if err != nil {
		return 0, err
	}
	restored, err := decodePrivate(rec)
	if err != nil {
		return 0, err
	}
	s.privMu.Lock()
	if s.dur != nil {
		s.privMu.Unlock()
		return 0, fmt.Errorf("shell %s: durable state already enabled", s.id)
	}
	for k, v := range restored {
		s.private[k] = v
	}
	s.dur = lg
	s.checkpointPrivateLocked()
	s.privMu.Unlock()
	store.OnClose(func() error {
		s.privMu.Lock()
		defer s.privMu.Unlock()
		return s.checkpointPrivateLocked()
	})
	return len(restored), nil
}

// decodePrivate folds a recovery into an interpretation: the checkpoint
// snapshot (a JSON key→literal map), then each journaled write in order.
func decodePrivate(rec *durable.Recovery) (data.Interpretation, error) {
	out := data.NewInterpretation()
	if rec.Snapshot != nil {
		var snap map[string]string
		if err := json.Unmarshal(rec.Snapshot, &snap); err != nil {
			return nil, fmt.Errorf("shell: decoding private snapshot: %w", err)
		}
		for k, lit := range snap {
			v, err := data.ParseLiteral(lit)
			if err != nil {
				return nil, fmt.Errorf("shell: bad persisted value %s=%q: %w", k, lit, err)
			}
			out[k] = v
		}
	}
	for _, r := range rec.Records {
		if r.Type != pSetRec {
			continue
		}
		var p pSet
		if err := json.Unmarshal(r.Data, &p); err != nil {
			return nil, fmt.Errorf("shell: decoding private write: %w", err)
		}
		v, err := data.ParseLiteral(p.V)
		if err != nil {
			return nil, fmt.Errorf("shell: bad persisted value %s=%q: %w", p.K, p.V, err)
		}
		out[p.K] = v
	}
	return out, nil
}

// setPrivate is the single mutation point for CM-private data: every
// write lands in the interpretation and, when durable state is enabled,
// in the journal — in that order, under one critical section, so the
// journal never lags a state the rest of the shell has already seen.
func (s *Shell) setPrivate(item data.ItemName, v data.Value) {
	s.privMu.Lock()
	s.private.Set(item, v)
	s.journalPrivateLocked(item, v)
	s.privMu.Unlock()
}

func (s *Shell) journalPrivateLocked(item data.ItemName, v data.Value) {
	if s.dur == nil {
		return
	}
	b, _ := json.Marshal(pSet{K: item.Key(), V: v.String()}) // two strings: cannot fail
	// A failed append's error is dropped here: the log keeps it, refuses
	// every later write and returns it from Store.Close, so whatever
	// reached the log is what the next incarnation recovers.
	if s.dur.Append(pSetRec, b) == nil && s.dur.WALSize() >= durCheckpointBytes {
		s.checkpointPrivateLocked()
	}
}

// checkpointPrivateLocked snapshots the whole interpretation and
// truncates the journal.
func (s *Shell) checkpointPrivateLocked() error {
	snap := make(map[string]string, len(s.private))
	for k, v := range s.private {
		snap[k] = v.String()
	}
	b, _ := json.Marshal(snap) // string to string: cannot fail
	return s.dur.Checkpoint(b)
}
