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
	"encoding/binary"
	"fmt"

	"cmtk/internal/durable"
	"cmtk/internal/wire"
)

// Journal record types.  Every record, and every checkpoint snapshot,
// opens with journalFormat; numbers are uvarints, strings are
// wire.AppendString, and a message is one message of the batch codec
// (codec.go) without its Link stamp.  Each record and each snapshot
// interns its strings afresh, so every record decodes on its own.
const (
	jSend byte = 1 // peer, seq, a one-message batch: a message was sequenced and buffered
	jAck  byte = 2 // peer, ack: outbox entries below ack were retired
	jIn   byte = 3 // peer, epoch, next: the receive cursor for a peer moved
	jMeta byte = 4 // epoch: this endpoint's incarnation epoch
)

// journalFormat opens every journal record and snapshot.  A journal
// written before the binary encoding holds JSON, which opens with '{'.
const journalFormat byte = 1

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

// appendSendRec appends a jSend record's fields to dst.
func appendSendRec(dst []byte, e *batchEncoder, peer string, seq uint64, m Message) []byte {
	dst = wire.AppendString(dst, peer)
	dst = binary.AppendUvarint(dst, seq)
	return appendJournaled(binary.AppendUvarint(dst, 1), e, m)
}

// appendAckRec appends a jAck record's fields to dst.
func appendAckRec(dst []byte, peer string, ack uint64) []byte {
	return binary.AppendUvarint(wire.AppendString(dst, peer), ack)
}

// appendInRec appends a jIn record's fields to dst.
func appendInRec(dst []byte, peer string, epoch, next uint64) []byte {
	dst = binary.AppendUvarint(wire.AppendString(dst, peer), epoch)
	return binary.AppendUvarint(dst, next)
}

// appendJournaled appends an outbox message as the journal stores it:
// without the Link stamp, which replay rebuilds from the journaled
// sequence number and epoch.
func appendJournaled(dst []byte, e *batchEncoder, m Message) []byte {
	m.Link = LinkStamp{}
	return e.appendMessage(dst, &m)
}

// appendSnapshot appends st's fields to dst: the epoch, each send link
// (peer, next seq, then its outbox as seq and message pairs) and each
// receive link (peer, epoch, next), peers in ascending order so the
// encoding is canonical.
func appendSnapshot(dst []byte, e *batchEncoder, st *relSnapshot) []byte {
	dst = binary.AppendUvarint(dst, st.Epoch)
	peers := sortedKeys(nil, st.Out)
	dst = binary.AppendUvarint(dst, uint64(len(peers)))
	for _, p := range peers {
		o := st.Out[p]
		dst = wire.AppendString(dst, p)
		dst = binary.AppendUvarint(dst, o.NextSeq)
		dst = binary.AppendUvarint(dst, uint64(len(o.Msgs)))
		for _, q := range o.Msgs {
			dst = appendJournaled(binary.AppendUvarint(dst, q.Seq), e, q.Msg)
		}
	}
	peers = sortedKeys(peers, st.In)
	dst = binary.AppendUvarint(dst, uint64(len(peers)))
	for _, p := range peers {
		dst = appendInRec(dst, p, st.In[p].Epoch, st.In[p].Next)
	}
	return dst
}

// openJournal checks the format byte a record or snapshot opens with and
// returns a decoder over the rest.
func openJournal(b []byte) (wire.Decoder, error) {
	switch {
	case len(b) == 0:
		return wire.Decoder{}, fmt.Errorf("%w: empty journal entry", wire.ErrMalformed)
	case b[0] == journalFormat:
		return wire.NewDecoder(b[1:]), nil
	case b[0] == '{':
		return wire.Decoder{}, fmt.Errorf("%w: a JSON journal (the format before the binary encoding)", wire.ErrFormat)
	default:
		return wire.Decoder{}, fmt.Errorf("%w: journal format byte %#x", wire.ErrFormat, b[0])
	}
}

// closeJournal reports d's failure, or leftover input as one.
func closeJournal(d *wire.Decoder) error {
	if d.Err() == nil && d.Len() > 0 {
		d.Fail("%d trailing bytes", d.Len())
	}
	return d.Err()
}

// decodeJournaled reads one message written by appendJournaled.
func decodeJournaled(d *wire.Decoder, bd *batchDecoder) Message {
	var m Message
	bd.decodeMessage(d, &m)
	if m.Link != (LinkStamp{}) {
		d.Fail("journaled message carries a link stamp")
	}
	return m
}

// sortedPeer reads the i-th peer of a list in ascending order whose
// previous entry was prev.
func sortedPeer(d *wire.Decoder, i int, prev string) string {
	p := string(d.Bytes())
	if i > 0 && p <= prev {
		d.Fail("peers out of order at %q", p)
	}
	return p
}

// decodeSnapshot decodes a snapshot written by appendSnapshot.
func decodeSnapshot(b []byte) (relSnapshot, error) {
	st := newRelSnapshot()
	d, err := openJournal(b)
	if err != nil {
		return st, err
	}
	var bd batchDecoder
	st.Epoch = d.Uvarint()
	n := d.Count(3)
	var prev string
	for i := 0; i < n && d.Err() == nil; i++ {
		prev = sortedPeer(&d, i, prev)
		o := &relOutSnap{NextSeq: d.Uvarint()}
		k := d.Count(1 + minMessageBytes)
		for j := 0; j < k && d.Err() == nil; j++ {
			seq := d.Uvarint()
			o.Msgs = append(o.Msgs, jQueued{Seq: seq, Msg: decodeJournaled(&d, &bd)})
		}
		st.Out[prev] = o
	}
	n = d.Count(3)
	for i := 0; i < n && d.Err() == nil; i++ {
		prev = sortedPeer(&d, i, prev)
		st.In[prev] = relInSnap{Epoch: d.Uvarint(), Next: d.Uvarint()}
	}
	return st, closeJournal(&d)
}

// applyRecord decodes one record and folds it into st, which the caller
// must discard if it fails.
func applyRecord(st *relSnapshot, typ byte, data []byte) error {
	if typ < jSend || typ > jMeta {
		// An unknown record type from a newer build: skip rather than
		// fail, the absolute cursors around it still converge.
		return nil
	}
	d, err := openJournal(data)
	if err != nil {
		return err
	}
	switch typ {
	case jMeta:
		st.Epoch = d.Uvarint()
	case jSend:
		p, seq := string(d.Bytes()), d.Uvarint()
		if n := d.Count(minMessageBytes); n != 1 {
			d.Fail("a send record of %d messages", n)
		}
		o := st.Out[p]
		if o == nil {
			o = &relOutSnap{}
			st.Out[p] = o
		}
		m := decodeJournaled(&d, &batchDecoder{})
		if len(o.Msgs) == 0 || o.Msgs[len(o.Msgs)-1].Seq < seq {
			o.Msgs = append(o.Msgs, jQueued{Seq: seq, Msg: m})
		}
		if seq >= o.NextSeq {
			o.NextSeq = seq + 1
		}
	case jAck:
		p, ack := string(d.Bytes()), d.Uvarint()
		if o := st.Out[p]; o != nil {
			for len(o.Msgs) > 0 && o.Msgs[0].Seq < ack {
				o.Msgs = o.Msgs[1:]
			}
		}
	case jIn:
		p, epoch, next := string(d.Bytes()), d.Uvarint(), d.Uvarint()
		cur := st.In[p]
		if epoch > cur.Epoch || (epoch == cur.Epoch && next > cur.Next) {
			st.In[p] = relInSnap{Epoch: epoch, Next: next}
		}
	}
	return closeJournal(&d)
}

// applyJournal folds a recovery (checkpoint snapshot + post-checkpoint
// records) into link state.  Replay is idempotent: records carry absolute
// sequence numbers and cumulative cursors, so applying a record twice —
// or applying records already covered by the snapshot — converges to the
// same state.  A snapshot or record that does not decode fails the whole
// recovery with an error wrapping wire.ErrFormat (a journal from before
// the binary encoding included) or wire.ErrMalformed.
func applyJournal(rec *durable.Recovery) (relSnapshot, error) {
	st := newRelSnapshot()
	if rec == nil {
		return st, nil
	}
	if rec.Snapshot != nil {
		var err error
		if st, err = decodeSnapshot(rec.Snapshot); err != nil {
			return relSnapshot{}, fmt.Errorf("transport: decoding journal checkpoint: %w", err)
		}
	}
	for _, r := range rec.Records {
		if err := applyRecord(&st, r.Type, r.Data); err != nil {
			return relSnapshot{}, fmt.Errorf("transport: decoding journal record of type %d: %w", r.Type, err)
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
// were recovered and will be replayed by the retry schedule.  A journal
// that does not decode installs nothing.
func (r *ReliableEndpoint) EnableJournal(store *durable.Store, name string) (int, error) {
	lg, rec, err := store.Log(name)
	if err != nil {
		return 0, err
	}
	st, err := applyJournal(rec)
	if err != nil {
		return 0, err
	}
	r.mu.Lock()
	if r.j != nil {
		r.mu.Unlock()
		return 0, fmt.Errorf("transport: journal already enabled")
	}
	r.j = lg
	replayed := r.installLocked(st)
	r.journalLocked(jMeta, binary.AppendUvarint(r.recordLocked(), r.epoch))
	r.checkpointLocked()
	r.mu.Unlock()
	store.OnClose(func() error {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.checkpointLocked()
	})
	return replayed, nil
}

// installLocked installs recovered link state under r.mu and returns the
// number of outbox messages the retry schedule will replay.
func (r *ReliableEndpoint) installLocked(st relSnapshot) int {
	if st.Epoch != 0 {
		// Resume the previous incarnation: peers keep their dedup state, so
		// the replayed outbox deduplicates down to exactly-once effect.
		r.epoch = st.Epoch
	}
	replayed := 0
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
	return replayed
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

// recordLocked starts a journal record, or a snapshot, in the endpoint's
// reused buffer, with an empty interning table.
func (r *ReliableEndpoint) recordLocked() []byte {
	clear(r.jEnc.ids)
	return append(r.jBuf[:0], journalFormat)
}

// journalLocked appends one record, built on recordLocked, under r.mu,
// and reports whether the log took it.  A failed append's error is
// dropped here: the log refuses every later write (ErrCrashed after the
// harness's crash hook; otherwise the failure it keeps and Store.Close
// returns), exactly as if the process had died — whatever reached the
// log is what the next incarnation recovers.
func (r *ReliableEndpoint) journalLocked(typ byte, rec []byte) bool {
	r.jBuf = rec[:0]
	return r.j.Append(typ, rec) == nil
}

// maybeCheckpointLocked compacts the journal once it outgrows the
// configured threshold.
func (r *ReliableEndpoint) maybeCheckpointLocked() {
	if r.j.WALSize() >= r.opts.CheckpointBytes {
		r.checkpointLocked()
	}
}

// checkpointLocked snapshots the full link state and truncates the
// journal; it does nothing when the endpoint has no journal.
func (r *ReliableEndpoint) checkpointLocked() error {
	if r.j == nil {
		return nil
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
	data := appendSnapshot(r.recordLocked(), &r.jEnc, &st)
	r.jBuf = data[:0]
	return r.j.Checkpoint(data)
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
	if err != nil {
		return JournalSummary{}, err
	}
	sum := JournalSummary{
		Epoch: st.Epoch,
		Out:   map[string]OutSummary{},
		In:    map[string]InSummary{},
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
