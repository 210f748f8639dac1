package transport

import (
	"encoding/json"
	"fmt"

	"cmtk/internal/durable"
)

// The reliability journal as it was before it moved onto the batch
// codec, kept verbatim (bar the names, and the endpoint passed as an
// argument) as the oracle TestJournalMatchesJSONOracle holds the binary
// journal to.  Records and the checkpoint were JSON, and Send folded a
// message's bindings into literals with WireReady before journaling it.

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

func oracleApplyJournal(rec *durable.Recovery) (relSnapshot, error) {
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

func oracleJournalLocked(r *ReliableEndpoint, typ byte, v any) {
	if r.j == nil {
		return
	}
	if data, err := json.Marshal(v); err == nil {
		r.j.Append(typ, data) // a failure stays with the log
	}
}

func oracleCheckpointLocked(r *ReliableEndpoint) {
	if r.j == nil {
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
	if data, err := json.Marshal(st); err == nil {
		r.j.Checkpoint(data) // a failure stays with the log
	}
}
