package transport

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/event"
	"cmtk/internal/wire"
)

// codecCorpus holds one message of every kind the mesh carries.
func codecCorpus() []Message {
	at := time.Date(2026, 3, 4, 5, 6, 7, 891011, time.UTC)
	trig := &event.Event{Site: "A", Seq: 41, Time: at,
		Desc: event.Ws(data.Item("salary1", data.NewString("e7")), data.NewInt(1), data.NewInt(100))}
	return []Message{
		{ // a firing as dispatch builds it, stamped by Reliable
			Kind: "fire", From: "shellA", To: "shellB", Rule: "prop",
			BindingsVal: event.Bindings{
				"n": data.NewString(`e"7` + "\n✓"), "b": data.NewInt(-100), "f": data.NewFloat(2.5),
				"g": data.NewFloat(-1e-300), "t": data.NewBool(true), "u": data.NewBool(false), "z": data.NullValue,
			},
			Trigger:      EventRef{Site: "A", Seq: 41, Time: at},
			TriggerEvent: trig,
			Link:         LinkStamp{Epoch: 1_700_000_000_000_000_000, Seq: 12, Base: 9},
		},
		{ // a firing replayed from the journal: literal bindings, a fleet epoch
			Kind: "fire", From: "shellA", To: "shellB", Rule: "prop", Epoch: 7,
			Bindings: map[string]string{"n": `"e7"`, "b": "100"},
			Trigger:  EventRef{Site: "A", Seq: 42, Time: at, Desc: `N(salary1("e7"), 100)`},
			Link:     LinkStamp{Epoch: 3, Seq: 0},
		},
		{Kind: "fire", From: "shellA", To: "shellB", Rule: "noargs", BindingsVal: event.Bindings{}},
		{Kind: "failure", From: "shellA", To: "shellB", FailSite: "A", FailKind: "metric",
			FailOp: "send fire prop", FailErr: "transport: no address for shell shellB"},
		{Kind: "recovered", From: "shellA", To: "shellB", FailSite: "A", FailOp: "link"},
		{Kind: "fleet-trigger", From: "m1", To: "m2", Epoch: 5, Payload: map[string]string{
			"op": "ws", "item": `salary1("e7")`, "old": "1", "new": "2", "site": "A", "fleet-hops": "2",
		}},
		{Kind: "demarcation", From: "shellA", To: "shellB", Payload: map[string]string{
			"op": "request", "amount": "5", "req": "1",
		}},
		{Kind: relAckKind, From: "shellB", To: "shellA", Link: LinkStamp{Seq: 13}},
		{},
	}
}

// canonical renders a delivered message comparable across the two
// paths: bindings as literals however they travelled, empty maps as nil,
// times without location or monotonic reading.
func canonical(m Message) Message {
	if m.Bindings == nil && m.BindingsVal != nil {
		m.Bindings = make(map[string]string, len(m.BindingsVal))
		for k, v := range m.BindingsVal {
			m.Bindings[k] = v.String()
		}
	}
	m.BindingsVal = nil
	if len(m.Bindings) == 0 {
		m.Bindings = nil
	}
	if len(m.Payload) == 0 {
		m.Payload = nil
	}
	if m.Trigger.Time.IsZero() {
		m.Trigger.Time = time.Time{}
	} else {
		m.Trigger.Time = time.Unix(0, m.Trigger.Time.UnixNano()).UTC()
	}
	m.TriggerEvent = nil
	return m
}

// memConn is an in-memory stream for a wire.Conn.
type memConn struct{ bytes.Buffer }

func (*memConn) Close() error { return nil }

// binaryHop sends a batch through the codec and a wire frame.
func binaryHop(t *testing.T, enc *batchEncoder, dec *batchDecoder, batch []Message) []Message {
	t.Helper()
	c := wire.NewConn(&memConn{})
	if err := c.Write(wire.Message{ID: 1, Type: frameType, Body: enc.appendBatch(nil, batch)}); err != nil {
		t.Fatal(err)
	}
	m, err := c.Read()
	if err != nil {
		t.Fatal(err)
	}
	got, err := dec.decodeBatch(nil, m.Body)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// oracleHop sends a batch the way the JSON hop did.
func oracleHop(t *testing.T, batch []Message) []Message {
	t.Helper()
	legacy := make([]Message, len(batch))
	for i := range batch {
		legacy[i] = oracleStamp(batch[i])
	}
	frame, err := oracleFrame(legacy)
	if err != nil {
		t.Fatal(err)
	}
	var got []Message
	if err := oracleHandle(frame, func(m Message) { got = append(got, oracleUnstamp(m)) }); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestCodecMatchesJSONOracle: every kind of message arrives through the
// binary codec as it arrived through the JSON hop, link stamps included,
// whether it travels alone or in a batch and whether its strings are
// new to the connection or already interned.  Bindings sent as values
// arrive as values, and each equals the literal the JSON hop delivered.
func TestCodecMatchesJSONOracle(t *testing.T) {
	corpus := codecCorpus()
	var enc batchEncoder
	var dec batchDecoder
	batches := [][]Message{corpus, corpus, corpus[:1], corpus[1:2]}
	for _, m := range corpus {
		batches = append(batches, []Message{m})
	}
	for bi, batch := range batches {
		got := binaryHop(t, &enc, &dec, batch)
		want := oracleHop(t, batch)
		if len(got) != len(want) {
			t.Fatalf("batch %d: %d messages through the codec, %d through the oracle", bi, len(got), len(want))
		}
		for i := range got {
			if batch[i].BindingsVal != nil && got[i].BindingsVal == nil {
				t.Errorf("batch %d message %d: value bindings arrived without values", bi, i)
			}
			for k, v := range got[i].BindingsVal {
				lit, err := data.ParseLiteral(want[i].Bindings[k])
				if err != nil || lit.Kind() != v.Kind() || !lit.Equal(v) {
					t.Errorf("batch %d message %d: binding %s is %v through the codec, literal %q through the oracle",
						bi, i, k, v, want[i].Bindings[k])
				}
			}
			if g, w := canonical(got[i]), canonical(want[i]); !reflect.DeepEqual(g, w) {
				t.Errorf("batch %d message %d:\ncodec  %+v\noracle %+v", bi, i, g, w)
			}
		}
	}
}

// TestCodecInternsRepeatedStrings: once a connection has carried a
// string, later messages refer to it instead of repeating it.
func TestCodecInternsRepeatedStrings(t *testing.T) {
	var enc batchEncoder
	fire := codecCorpus()[0]
	first := len(enc.appendBatch(nil, []Message{fire}))
	again := len(enc.appendBatch(nil, []Message{fire}))
	if again >= first-len("shellA")-len("shellB")-len("prop") {
		t.Fatalf("a repeated firing takes %d bytes after %d the first time: nothing was interned", again, first)
	}
}

// batchRejects lists hand-built batch bodies the decoder must refuse.
var batchRejects = []struct {
	name string
	body []byte
}{
	{"empty", nil},
	{"zero messages", []byte{0}},
	{"truncated varint", []byte{0x80}},
	{"over-long count", []byte{0xff, 0xff, 0xff, 0xff, 0x0f}},
	{"legacy JSON batch", []byte(`[{"Kind":"fire","From":"A","To":"B","Rule":"r"}]`)},
	{"reference to an uninterned string", []byte{1, 2, 0, 0, 0, 0, 0, 0, 0, 0}},
	{"unknown flag", []byte{1, 0, 0, 0, 0x80, 0, 0, 0, 0, 0}},
	{"values and literals", []byte{1, 0, 0, 0, flagValues | flagLiterals, 0, 0, 0, 0, 0, 0, 0}},
	{"empty link stamp", []byte{1, 0, 0, 0, flagLink, 0, 0, 0, 0, 0, 0, 0, 0}},
	{"empty failure section", []byte{1, 0, 0, 0, flagFail, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
	{"literal repeating an interned string", []byte{2,
		1, 1, 'x', 0, 0, 0, 0, 0, 0, 0, 0,
		1, 1, 'x', 0, 0, 0, 0, 0, 0, 0, 0}},
	{"unsorted payload keys", []byte{1, 0, 0, 0, flagPayload, 0, 0, 0, 0, 0, 2, 1, 1, 'b', 0, 1, 1, 'a', 0}},
	{"unknown value tag", []byte{1, 0, 0, 0, flagValues, 0, 0, 0, 0, 0, 1, 1, 1, 'v', 9}},
	{"trailing bytes", []byte{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
}

// TestDecodeBatchRejectsClassified: each malformed body is refused whole,
// with the wire taxonomy's ErrMalformed, and a count larger than the body
// can hold is refused before anything is sized by it.
func TestDecodeBatchRejectsClassified(t *testing.T) {
	for _, tc := range batchRejects {
		var dec batchDecoder
		if msgs, err := dec.decodeBatch(nil, tc.body); !errors.Is(err, wire.ErrMalformed) || msgs != nil {
			t.Errorf("%s: decoded %d messages, err = %v; want none and ErrMalformed", tc.name, len(msgs), err)
		}
	}
	claims := [][]byte{
		{0xff, 0xff, 0xff, 0xff, 0x0f},                                         // messages
		{1, 0, 0, 0, flagValues, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f},  // bindings
		{1, 0, 0, 0, flagPayload, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}, // payload
	}
	const rounds = 100
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		for _, body := range claims {
			var dec batchDecoder
			if _, err := dec.decodeBatch(nil, body); !errors.Is(err, wire.ErrMalformed) {
				t.Fatalf("claim %x: err = %v", body, err)
			}
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / (rounds * uint64(len(claims))); per > 1<<10 {
		t.Fatalf("a rejected 15-byte batch cost %d allocated bytes", per)
	}
}

// FuzzMessageBatch feeds arbitrary bytes to a fresh connection's batch
// decoder.  It returns messages or an error wrapping wire.ErrMalformed,
// never panics, and a batch it accepts encodes back, on a fresh
// connection, to exactly the bytes it came from.
func FuzzMessageBatch(f *testing.F) {
	for _, m := range codecCorpus() {
		var enc batchEncoder
		f.Add(enc.appendBatch(nil, []Message{m}))
	}
	var enc batchEncoder
	f.Add(enc.appendBatch(nil, codecCorpus()))
	for _, tc := range batchRejects {
		f.Add(tc.body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var dec batchDecoder
		msgs, err := dec.decodeBatch(nil, body)
		if err != nil {
			if !errors.Is(err, wire.ErrMalformed) {
				t.Fatalf("unclassified error: %v", err)
			}
			return
		}
		var enc batchEncoder
		if out := enc.appendBatch(nil, msgs); !bytes.Equal(out, body) {
			t.Fatalf("accepted batch re-encodes differently:\n in %x\nout %x", body, out)
		}
	})
}
