// Durable journaling for the reliability layer.  Section 5 of the paper
// classifies a crash as a mere *metric* failure only when the site "can
// remember messages that need to be sent out upon recovery"; an in-memory
// outbox forfeits that — a restart loses every buffered fire and the
// constraint guarantees break logically.  EnableJournal earns the metric
// classification for real: the sender incarnation epoch, every sequenced
// outbound message, cumulative acks, and the receiver's dedup cursor are
// written to a durable.Log before they matter, so a restarted endpoint
// resumes the same epoch and sequence numbering, replays its unacked
// outbox in order, and keeps deduplicating inbound messages where it left
// off — exactly-once effect across the crash, not just across an outage.

package transport

import (
	"encoding/json"
	"fmt"

	"cmtk/internal/durable"
)

// Journal record types (all JSON-encoded).
const (
	jSend byte = 1 // jSendRec: a message was sequenced and buffered
	jAck  byte = 2 // jAckRec: outbox entries below Ack were retired
	jIn   byte = 3 // jInRec: the receive cursor for a peer moved
	jMeta byte = 4 // jMetaRec: this endpoint's incarnation epoch
)

type jSendRec struct {
	Peer string
	Seq  uint64
	Msg  Message // without its Link stamp or TriggerEvent
}

type jAckRec struct {
	Peer string
	Ack  uint64 // cumulative: everything below is retired
}

type jInRec struct {
	Peer  string
	Epoch uint64
	Next  uint64
}

type jMetaRec struct {
	Epoch uint64
}

// jQueued is one outbox entry in a checkpoint snapshot.
type jQueued struct {
	Seq uint64
	Msg Message
}

type relOutSnap struct {
	NextSeq uint64
	Msgs    []jQueued
}

type relInSnap struct {
	Epoch uint64
	Next  uint64
}

// relSnapshot is the full link state written as a checkpoint: recovery
// starts here and replays only the journal records appended afterwards.
type relSnapshot struct {
	Epoch uint64
	Out   map[string]*relOutSnap
	In    map[string]relInSnap
}

func newRelSnapshot() relSnapshot {
	return relSnapshot{Out: map[string]*relOutSnap{}, In: map[string]relInSnap{}}
}

// applyJournal folds a recovery (checkpoint snapshot + post-checkpoint
// records) into link state.  Replay is idempotent: records carry absolute
// sequence numbers and cumulative cursors, so applying a record twice —
// or applying records already covered by the snapshot — converges to the
// same state.
func applyJournal(rec *durable.Recovery) (relSnapshot, error) {
	st := newRelSnapshot()
	if rec == nil {
		return st, nil
	}
	if rec.Snapshot != nil {
		if err := json.Unmarshal(rec.Snapshot, &st); err != nil {
			return st, fmt.Errorf("transport: decoding journal checkpoint: %w", err)
		}
		if st.Out == nil {
			st.Out = map[string]*relOutSnap{}
		}
		if st.In == nil {
			st.In = map[string]relInSnap{}
		}
	}
	for _, r := range rec.Records {
		switch r.Type {
		case jMeta:
			var m jMetaRec
			if err := json.Unmarshal(r.Data, &m); err != nil {
				return st, fmt.Errorf("transport: decoding journal meta: %w", err)
			}
			st.Epoch = m.Epoch
		case jSend:
			var s jSendRec
			if err := json.Unmarshal(r.Data, &s); err != nil {
				return st, fmt.Errorf("transport: decoding journal send: %w", err)
			}
			o := st.Out[s.Peer]
			if o == nil {
				o = &relOutSnap{}
				st.Out[s.Peer] = o
			}
			if len(o.Msgs) == 0 || o.Msgs[len(o.Msgs)-1].Seq < s.Seq {
				o.Msgs = append(o.Msgs, jQueued{Seq: s.Seq, Msg: s.Msg})
			}
			if s.Seq >= o.NextSeq {
				o.NextSeq = s.Seq + 1
			}
		case jAck:
			var a jAckRec
			if err := json.Unmarshal(r.Data, &a); err != nil {
				return st, fmt.Errorf("transport: decoding journal ack: %w", err)
			}
			if o := st.Out[a.Peer]; o != nil {
				for len(o.Msgs) > 0 && o.Msgs[0].Seq < a.Ack {
					o.Msgs = o.Msgs[1:]
				}
			}
		case jIn:
			var in jInRec
			if err := json.Unmarshal(r.Data, &in); err != nil {
				return st, fmt.Errorf("transport: decoding journal cursor: %w", err)
			}
			cur := st.In[in.Peer]
			if in.Epoch > cur.Epoch || (in.Epoch == cur.Epoch && in.Next > cur.Next) {
				st.In[in.Peer] = relInSnap{Epoch: in.Epoch, Next: in.Next}
			}
		default:
			// An unknown record type from a newer build: skip rather than
			// fail, the absolute cursors around it still converge.
		}
	}
	return st, nil
}

// EnableJournal makes the endpoint durable: link state recovered from the
// named log in the store is installed (incarnation epoch, unacked outbox
// per peer with retry timers armed, receiver dedup cursors), a fresh
// checkpoint compacts the recovered journal, and every subsequent
// Send/ack/delivery is journaled before it takes effect.  It must be
// called once, before the endpoint carries traffic, and registers a
// final-checkpoint hook with the store so a clean shutdown leaves only a
// snapshot to recover.  It returns the number of outbox messages that
// were recovered and will be replayed by the retry schedule.
func (r *ReliableEndpoint) EnableJournal(store *durable.Store, name string) (int, error) {
	lg, rec, err := store.Log(name)
	if err != nil {
		return 0, err
	}
	if rec == nil {
		return 0, fmt.Errorf("transport: journal %s already in use", name)
	}
	st, err := applyJournal(rec)
	if err != nil {
		return 0, err
	}
	replayed := 0
	r.mu.Lock()
	if r.j != nil {
		r.mu.Unlock()
		return 0, fmt.Errorf("transport: journal already enabled")
	}
	r.j = lg
	if st.Epoch != 0 {
		// Resume the previous incarnation: peers keep their dedup state, so
		// the replayed outbox deduplicates down to exactly-once effect.
		r.epoch = st.Epoch
	}
	for peer, s := range st.Out {
		o := r.outLink(peer)
		o.nextSeq = s.NextSeq
		o.q, o.head = o.q[:0], 0
		for _, q := range s.Msgs {
			// The stamp is rebuilt, not stored: the journaled sequence number
			// and the resumed incarnation epoch are all it holds.
			q.Msg.Link = LinkStamp{Epoch: r.epoch, Seq: q.Seq}
			o.push(q.Msg)
		}
		o.mDepth.Set(int64(len(o.q)))
		if len(o.q) > 0 {
			replayed += len(o.q)
			r.scheduleLocked(o)
		}
	}
	for peer, s := range st.In {
		in := r.inLink(peer)
		in.epoch, in.next = s.Epoch, s.Next
	}
	r.journalLocked(jMeta, jMetaRec{Epoch: r.epoch})
	r.checkpointLocked()
	r.mu.Unlock()
	store.OnClose(func() error {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.checkpointLocked()
		return r.jErr
	})
	return replayed, nil
}

// inLink returns (creating if needed) the receiver half of a link.
func (r *ReliableEndpoint) inLink(from string) *relIn {
	in := r.in[from]
	if in == nil {
		in = &relIn{
			hold:  map[uint64]Message{},
			mDups: r.met.dups.With(from),
			mHeld: r.met.held.With(from),
		}
		r.in[from] = in
	}
	return in
}

// journalLocked appends one record under r.mu.  A failed append (most
// likely ErrCrashed from the harness's crash hook) latches: journaling
// stops, exactly as if the process had died — whatever reached the log is
// what the next incarnation recovers.
func (r *ReliableEndpoint) journalLocked(typ byte, v any) {
	if r.j == nil || r.jErr != nil {
		return
	}
	data, err := json.Marshal(v)
	if err == nil {
		err = r.j.Append(typ, data)
	}
	if err != nil {
		r.jErr = err
	}
}

// maybeCheckpointLocked compacts the journal once it outgrows the
// configured threshold.
func (r *ReliableEndpoint) maybeCheckpointLocked() {
	if r.j == nil || r.jErr != nil || r.j.WALSize() < r.opts.CheckpointBytes {
		return
	}
	r.checkpointLocked()
}

// checkpointLocked snapshots the full link state and truncates the
// journal.
func (r *ReliableEndpoint) checkpointLocked() {
	if r.j == nil || r.jErr != nil {
		return
	}
	st := newRelSnapshot()
	st.Epoch = r.epoch
	for peer, o := range r.out {
		s := &relOutSnap{NextSeq: o.nextSeq}
		for _, m := range o.unacked() {
			s.Msgs = append(s.Msgs, jQueued{Seq: m.Link.Seq, Msg: m})
		}
		st.Out[peer] = s
	}
	for peer, in := range r.in {
		st.In[peer] = relInSnap{Epoch: in.epoch, Next: in.next}
	}
	data, err := json.Marshal(st)
	if err == nil {
		err = r.j.Checkpoint(data)
	}
	if err != nil {
		r.jErr = err
	}
}

// JournalError reports the first journaling failure, if any (nil while
// the journal is healthy or disabled).
func (r *ReliableEndpoint) JournalError() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.jErr
}

// OutSummary describes one journaled send link.
type OutSummary struct {
	NextSeq uint64 // next sequence number to assign
	Pending int    // unacked messages buffered for replay
	Fires   int    // how many of Pending are rule firings
}

// InSummary describes one journaled receive link.
type InSummary struct {
	Epoch uint64 // sender incarnation last seen
	Next  uint64 // next expected sequence number
}

// JournalSummary is the decoded state of a reliability journal, for
// inspection tooling (cmctl state).
type JournalSummary struct {
	Epoch uint64
	Out   map[string]OutSummary
	In    map[string]InSummary
}

// SummarizeJournal decodes a reliability journal recovered read-only from
// a state directory (durable.ReadLog) without constructing an endpoint.
func SummarizeJournal(rec *durable.Recovery) (JournalSummary, error) {
	st, err := applyJournal(rec)
	sum := JournalSummary{
		Epoch: st.Epoch,
		Out:   map[string]OutSummary{},
		In:    map[string]InSummary{},
	}
	if err != nil {
		return sum, err
	}
	for peer, o := range st.Out {
		s := OutSummary{NextSeq: o.NextSeq, Pending: len(o.Msgs)}
		for _, q := range o.Msgs {
			if q.Msg.Kind == "fire" {
				s.Fires++
			}
		}
		sum.Out[peer] = s
	}
	for peer, in := range st.In {
		sum.In[peer] = InSummary{Epoch: in.Epoch, Next: in.Next}
	}
	return sum, nil
}
