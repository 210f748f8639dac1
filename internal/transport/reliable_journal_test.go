package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/durable"
	"cmtk/internal/event"
	"cmtk/internal/obs"
	"cmtk/internal/vclock"
	"cmtk/internal/wire"
)

// jStep is one step of a scripted journal history: a record (a jSendRec,
// jAckRec, jInRec or jMetaRec) or, when rec is nil, a restart.
type jStep struct {
	typ byte
	rec any
}

// journalPath is one way of writing and recovering a journal.
type journalPath struct {
	// write journals one record through e.
	write func(e *ReliableEndpoint, typ byte, rec any)
	// restart starts an endpoint over the store the way EnableJournal
	// does: recover, install, journal the epoch, checkpoint.
	restart func(t *testing.T, st *durable.Store, e *ReliableEndpoint)
	apply   func(*durable.Recovery) (relSnapshot, error)
}

// appendRecord appends a scripted record's fields as the binary journal
// writes them.
func appendRecord(b []byte, e *batchEncoder, rec any) []byte {
	switch v := rec.(type) {
	case jSendRec:
		return appendSendRec(b, e, v.Peer, v.Seq, v.Msg)
	case jAckRec:
		return appendAckRec(b, v.Peer, v.Ack)
	case jInRec:
		return appendInRec(b, v.Peer, v.Epoch, v.Next)
	default:
		return binary.AppendUvarint(b, rec.(jMetaRec).Epoch)
	}
}

var binaryJournal = journalPath{
	write: func(e *ReliableEndpoint, typ byte, rec any) {
		e.mu.Lock()
		defer e.mu.Unlock()
		e.journalLocked(typ, appendRecord(e.recordLocked(), &e.jEnc, rec))
	},
	restart: func(t *testing.T, st *durable.Store, e *ReliableEndpoint) {
		if _, err := e.EnableJournal(st, "rel-A"); err != nil {
			t.Fatal(err)
		}
	},
	apply: applyJournal,
}

var jsonJournal = journalPath{
	write: func(e *ReliableEndpoint, typ byte, rec any) {
		if s, ok := rec.(jSendRec); ok {
			s.Msg.WireReady() // what Send did before journaling
			rec = s
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		oracleJournalLocked(e, typ, rec)
	},
	restart: func(t *testing.T, st *durable.Store, e *ReliableEndpoint) {
		lg, rec, err := st.Log("rel-A")
		if err != nil {
			t.Fatal(err)
		}
		snap, err := oracleApplyJournal(rec)
		if err != nil {
			t.Fatal(err)
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		e.j = lg
		e.installLocked(snap)
		oracleJournalLocked(e, jMeta, jMetaRec{Epoch: e.epoch})
		oracleCheckpointLocked(e)
	},
	apply: oracleApplyJournal,
}

// runJournal writes a history into a fresh state directory along path p
// (which starts with a restart onto the empty directory) and returns what
// the directory then holds.
func runJournal(t *testing.T, p journalPath, steps []jStep) *durable.Recovery {
	t.Helper()
	dir := t.TempDir()
	clk := vclock.NewVirtual(vclock.Epoch)
	var st *durable.Store
	var e *ReliableEndpoint
	restart := func() {
		if st != nil {
			st.Crash()
			st.Close()
		}
		var err error
		if st, err = durable.Open(dir, durable.Options{Sync: durable.SyncNever, Metrics: obs.NewRegistry()}); err != nil {
			t.Fatal(err)
		}
		e = NewReliableEndpoint(nil, ReliableOptions{Clock: clk, Metrics: obs.NewRegistry()})
		p.restart(t, st, e)
	}
	restart()
	for _, s := range steps {
		if s.rec == nil {
			restart()
		} else {
			p.write(e, s.typ, s.rec)
		}
	}
	st.Crash()
	st.Close()
	rec, err := durable.ReadLog(dir, "rel-A")
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// journalHistory journals every kind of message the mesh sends, to two
// peers, with acks, cursor moves, an epoch record, a full ack of one
// peer's whole outbox and a restart (recover and checkpoint) in the middle.
func journalHistory() []jStep {
	var steps []jStep
	send := func(peer string, seq uint64, m Message) {
		steps = append(steps, jStep{jSend, jSendRec{Peer: peer, Seq: seq, Msg: m}})
	}
	corpus := codecCorpus()
	steps = append(steps, jStep{jMeta, jMetaRec{Epoch: 1_700_000_000_000_000_000}})
	for i, m := range corpus {
		send("B", uint64(i), m)
	}
	send("C", 0, corpus[5])
	send("C", 1, corpus[0])
	steps = append(steps,
		jStep{jAck, jAckRec{Peer: "B", Ack: 2}},
		jStep{jAck, jAckRec{Peer: "C", Ack: 1}},
		jStep{jIn, jInRec{Peer: "B", Epoch: 5, Next: 1}},
		jStep{jIn, jInRec{Peer: "C", Epoch: 9, Next: 4}},
		jStep{jIn, jInRec{Peer: "B", Epoch: 5, Next: 3}},
		jStep{}, // restart: the outbox and cursors so far become a checkpoint
		jStep{jAck, jAckRec{Peer: "B", Ack: uint64(len(corpus))}}, // B acked its whole outbox
		jStep{jIn, jInRec{Peer: "B", Epoch: 6, Next: 0}},
	)
	for i, m := range corpus[:4] {
		send("B", uint64(len(corpus)+i), m)
	}
	return steps
}

// TestJournalMatchesJSONOracle: for the same history, the binary journal
// recovers the link state the JSON journal did — epoch, cursors, outbox
// sequence numbers and messages.  Bindings sent as values come back as
// values, each equal to the literal the JSON journal stored.
func TestJournalMatchesJSONOracle(t *testing.T) {
	full := journalHistory()
	cut := 0
	for full[cut].rec != nil {
		cut++
	}
	for _, h := range []struct {
		name  string
		steps []jStep
	}{{"records only", full[:cut]}, {"checkpoint mid-history", full}} {
		got, err := applyJournal(runJournal(t, binaryJournal, h.steps))
		if err != nil {
			t.Fatalf("%s: %v", h.name, err)
		}
		want, err := oracleApplyJournal(runJournal(t, jsonJournal, h.steps))
		if err != nil {
			t.Fatalf("%s: %v", h.name, err)
		}
		if got.Epoch != want.Epoch || !reflect.DeepEqual(got.In, want.In) {
			t.Errorf("%s: epoch %d cursors %v, oracle epoch %d cursors %v", h.name, got.Epoch, got.In, want.Epoch, want.In)
		}
		if len(got.Out) != len(want.Out) {
			t.Errorf("%s: %d send links, oracle %d", h.name, len(got.Out), len(want.Out))
		}
		for peer, w := range want.Out {
			g := got.Out[peer]
			if g == nil || g.NextSeq != w.NextSeq || len(g.Msgs) != len(w.Msgs) {
				t.Errorf("%s: link to %s is %+v, oracle %+v", h.name, peer, g, w)
				continue
			}
			for i := range w.Msgs {
				gm, wm := g.Msgs[i].Msg, w.Msgs[i].Msg
				if g.Msgs[i].Seq != w.Msgs[i].Seq {
					t.Errorf("%s: %s[%d] has seq %d, oracle %d", h.name, peer, i, g.Msgs[i].Seq, w.Msgs[i].Seq)
				}
				if wm.Bindings != nil && gm.Bindings == nil && gm.BindingsVal == nil {
					t.Errorf("%s: %s[%d] lost its bindings", h.name, peer, i)
				}
				for k, v := range gm.BindingsVal {
					lit, err := data.ParseLiteral(wm.Bindings[k])
					if err != nil || lit.Kind() != v.Kind() || !lit.Equal(v) {
						t.Errorf("%s: %s[%d] binding %s is %v, oracle literal %q", h.name, peer, i, k, v, wm.Bindings[k])
					}
				}
				if c, o := canonical(gm), canonical(wm); !reflect.DeepEqual(c, o) {
					t.Errorf("%s: %s[%d]:\nbinary %+v\noracle %+v", h.name, peer, i, c, o)
				}
			}
		}
	}
}

// TestJournalReplaysBindingsAsValues: a fire journaled with value
// bindings is replayed with value bindings, so the receiving shell takes
// its fast path after a restart too.
func TestJournalReplaysBindingsAsValues(t *testing.T) {
	st, err := applyJournal(runJournal(t, binaryJournal, journalHistory()))
	if err != nil {
		t.Fatal(err)
	}
	// C's outbox holds codecCorpus()[0], carried through the restart's
	// checkpoint.
	c := st.Out["C"].Msgs
	if len(c) != 1 || c[0].Msg.Bindings != nil || c[0].Msg.BindingsVal["b"] != data.NewInt(-100) {
		t.Fatalf("C's replayed outbox is %+v, want one fire with value bindings", c)
	}
}

// TestJournalRejectsParentFormat: a state directory whose journal is
// JSON, as builds before the binary encoding wrote it, is refused with
// wire.ErrFormat — by EnableJournal, which then installs nothing, and by
// SummarizeJournal — whether recovery starts at its checkpoint or at its
// records.
func TestJournalRejectsParentFormat(t *testing.T) {
	records := journalHistory()[:3]
	for _, tc := range []struct {
		name  string
		write func(t *testing.T, dir string)
	}{
		{"checkpoint", func(t *testing.T, dir string) {
			st, err := durable.Open(dir, durable.Options{Metrics: obs.NewRegistry()})
			if err != nil {
				t.Fatal(err)
			}
			e := NewReliableEndpoint(nil, ReliableOptions{Metrics: obs.NewRegistry()})
			jsonJournal.restart(t, st, e)
			for _, s := range records {
				jsonJournal.write(e, s.typ, s.rec)
			}
			st.Close()
		}},
		{"records", func(t *testing.T, dir string) {
			st, err := durable.Open(dir, durable.Options{Metrics: obs.NewRegistry()})
			if err != nil {
				t.Fatal(err)
			}
			lg, _, err := st.Log("rel-A")
			if err != nil {
				t.Fatal(err)
			}
			e := NewReliableEndpoint(nil, ReliableOptions{Metrics: obs.NewRegistry()})
			e.j = lg
			for _, s := range records {
				jsonJournal.write(e, s.typ, s.rec)
			}
			st.Close()
		}},
	} {
		dir := t.TempDir()
		tc.write(t, dir)
		rec, err := durable.ReadLog(dir, "rel-A")
		if err != nil {
			t.Fatal(err)
		}
		if (rec.Snapshot != nil) != (tc.name == "checkpoint") || len(rec.Records) == 0 {
			t.Fatalf("%s: wrote snapshot=%v and %d records", tc.name, rec.Snapshot != nil, len(rec.Records))
		}
		if _, err := SummarizeJournal(rec); !errors.Is(err, wire.ErrFormat) {
			t.Errorf("%s: SummarizeJournal err = %v, want wire.ErrFormat", tc.name, err)
		}
		st, err := durable.Open(dir, durable.Options{Metrics: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		e := NewReliableEndpoint(nil, ReliableOptions{Metrics: obs.NewRegistry()})
		if _, err := e.EnableJournal(st, "rel-A"); !errors.Is(err, wire.ErrFormat) {
			t.Errorf("%s: EnableJournal err = %v, want wire.ErrFormat", tc.name, err)
		}
		if e.j != nil || len(e.out) != 0 || len(e.in) != 0 {
			t.Errorf("%s: a refused journal installed %d send and %d receive links", tc.name, len(e.out), len(e.in))
		}
		st.Close()
	}
}

// TestJournalOutboxDoesNotShareBindings: with journaling on, the outbox
// keeps its own copy of a firing's bindings, so a receiver writing into
// the map it was handed (as executeSteps does) never races a checkpoint
// encoding the outbox.  Run it under -race.
func TestJournalOutboxDoesNotShareBindings(t *testing.T) {
	const n = 100
	st, err := durable.Open(t.TempDir(), durable.Options{Sync: durable.SyncNever, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rel := NewReliable(NewBus(vclock.Real{}, 0), ReliableOptions{
		Durable: st, CheckpointBytes: 1, RetryInterval: 20 * time.Millisecond, Metrics: obs.NewRegistry(),
	})
	arrived := make(chan struct{}, n)
	b, err := rel.Join("B", func(m Message) {
		m.BindingsVal["now"] = data.NewInt(1)
		arrived <- struct{}{}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a, err := rel.Join("A", func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for i := 0; i < n; i++ {
		if err := a.Send("B", Message{Kind: "fire", Rule: "r",
			BindingsVal: event.Bindings{"n": data.NewInt(int64(i))}}); err != nil {
			t.Fatal(err)
		}
	}
	timeout := time.After(10 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case <-arrived:
		case <-timeout:
			t.Fatalf("%d of %d firings arrived", i, n)
		}
	}
	if err := a.(*ReliableEndpoint).JournalError(); err != nil {
		t.Fatal(err)
	}
}

// journalSeeds encodes the records of the journal history up to its
// restart, and the checkpoint the restart writes.
func journalSeeds() (recs []durable.Record, snap []byte) {
	var e batchEncoder
	for _, s := range journalHistory() {
		if s.rec == nil {
			break
		}
		clear(e.ids)
		recs = append(recs, durable.Record{Type: s.typ, Data: appendRecord([]byte{journalFormat}, &e, s.rec)})
	}
	st, err := applyJournal(&durable.Recovery{Records: recs})
	if err != nil {
		panic(err)
	}
	clear(e.ids)
	return recs, appendSnapshot([]byte{journalFormat}, &e, &st)
}

// FuzzJournal feeds arbitrary bytes to recovery, once as a checkpoint
// snapshot and once as a record of each type.  Recovery returns state or
// an error wrapping wire.ErrFormat or wire.ErrMalformed, never panics,
// allocates in proportion to the bytes it was given, and a snapshot it
// accepts encodes back to exactly the bytes it came from.
func FuzzJournal(f *testing.F) {
	recs, snap := journalSeeds()
	for _, r := range recs {
		f.Add(r.Data)
	}
	f.Add(snap)
	f.Fuzz(func(t *testing.T, in []byte) {
		recs := []*durable.Recovery{{Snapshot: append([]byte{}, in...)}}
		for _, typ := range []byte{jSend, jAck, jIn, jMeta} {
			recs = append(recs, &durable.Recovery{Records: []durable.Record{{Type: typ, Data: in}}})
		}
		for i, rec := range recs {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			st, err := applyJournal(rec)
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 256<<10+uint64(len(in))<<10 {
				t.Fatalf("recovering %d bytes allocated %d", len(in), grew)
			}
			if err != nil {
				if !errors.Is(err, wire.ErrFormat) && !errors.Is(err, wire.ErrMalformed) {
					t.Fatalf("unclassified error: %v", err)
				}
				continue
			}
			if i == 0 {
				var e batchEncoder
				if out := appendSnapshot([]byte{journalFormat}, &e, &st); !bytes.Equal(out, in) {
					t.Fatalf("accepted snapshot re-encodes differently:\n in %x\nout %x", in, out)
				}
			}
		}
	})
}

// TestJournalFuzzSeedsDecode: FuzzJournal's generated seeds are journal
// entries recovery accepts, so the fuzzer starts from valid inputs.
func TestJournalFuzzSeedsDecode(t *testing.T) {
	recs, snap := journalSeeds()
	st, err := applyJournal(&durable.Recovery{Snapshot: snap, Records: recs})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Out) != 2 || len(st.In) != 2 || len(st.Out["B"].Msgs) == 0 {
		t.Fatalf("seeds recover %d send links and %d cursors", len(st.Out), len(st.In))
	}
}
