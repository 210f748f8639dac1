package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"testing"
)

// jsonMessage is Message as the JSON framing encoded it, before the
// binary envelope.
type jsonMessage struct {
	ID   uint64            `json:"id,omitempty"`
	Type string            `json:"type"`
	Err  string            `json:"err,omitempty"`
	F    map[string]string `json:"f,omitempty"`
	Cols []string          `json:"cols,omitempty"`
	Rows [][]string        `json:"rows,omitempty"`
}

// oracleWrite and oracleRead are Conn.Write and Conn.Read as they were
// under the JSON framing, kept verbatim (bar the struct they marshal) as
// the oracle the binary envelope must agree with.
func oracleWrite(w io.Writer, m jsonMessage) error {
	buf, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("wire: marshal: %w", err)
	}
	if len(buf) > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", len(buf))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(buf)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

func oracleRead(r io.Reader) (jsonMessage, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return jsonMessage{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return jsonMessage{}, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return jsonMessage{}, err
	}
	var m jsonMessage
	if err := json.Unmarshal(buf, &m); err != nil {
		return jsonMessage{}, fmt.Errorf("wire: bad frame: %w", err)
	}
	return m, nil
}

// pipe is an in-memory stream for a Conn.
type pipe struct{ bytes.Buffer }

func (*pipe) Close() error { return nil }

// corpus covers every field of the envelope, the shapes the RIS servers
// and notify pushes use, and the empty and non-ASCII edges.
var corpus = []Message{
	{},
	{Type: "ok"},
	{ID: 1, Type: "sql", F: map[string]string{"q": "UPDATE employees SET salary = 5 WHERE id = 'e7'"}},
	{ID: 1 << 40, Type: "error", Err: "notfound: thing: not found"},
	{ID: 3, Type: "ok", Cols: []string{"id", "salary"},
		Rows: [][]string{{`"e7"`, "100"}, {`"e8"`, "2.5"}, nil}},
	{Type: "trigger", F: map[string]string{"op": "UPDATE", "table": "employees", "hasold": "1", "hasnew": "1"},
		Rows: [][]string{{`"e7"`, "1"}, {`"e7"`, "2"}}},
	{Type: "change", F: map[string]string{"entity": "héllo", "attr": "ünïcode ✓", "": "empty key"}},
	{ID: 9, Type: "entities", Cols: []string{"a", "", "c"}},
}

// TestBinaryMatchesJSONOracle: every message of the corpus reads back
// from the binary envelope exactly as it does from the JSON framing.
func TestBinaryMatchesJSONOracle(t *testing.T) {
	for i, m := range corpus {
		var jp, bp pipe
		if err := oracleWrite(&jp, jsonMessage{m.ID, m.Type, m.Err, m.F, m.Cols, m.Rows}); err != nil {
			t.Fatal(err)
		}
		want, err := oracleRead(&jp)
		if err != nil {
			t.Fatal(err)
		}
		c := NewConn(&bp)
		if err := c.Write(m); err != nil {
			t.Fatal(err)
		}
		got, err := c.Read()
		if err != nil {
			t.Fatalf("corpus %d: %v", i, err)
		}
		if g := (jsonMessage{got.ID, got.Type, got.Err, got.F, got.Cols, got.Rows}); !reflect.DeepEqual(g, want) {
			t.Errorf("corpus %d: binary gives %+v, JSON gives %+v", i, g, want)
		}
	}
}

func TestBodyRoundTrip(t *testing.T) {
	var p pipe
	c := NewConn(&p)
	for _, body := range [][]byte{{0}, []byte("batch"), bytes.Repeat([]byte{0xff}, maxRetained+1)} {
		if err := c.Write(Message{ID: 5, Type: "shellmsgb", Body: body}); err != nil {
			t.Fatal(err)
		}
		got, err := c.Read()
		if err != nil {
			t.Fatal(err)
		}
		if got.ID != 5 || got.Type != "shellmsgb" || !bytes.Equal(got.Body, body) {
			t.Fatalf("read %d-byte body back as %d bytes", len(body), len(got.Body))
		}
	}
}

// TestJSONFrameIsClassified: a frame from a build that still spoke JSON
// is rejected as a foreign format, not misread and not a panic.
func TestJSONFrameIsClassified(t *testing.T) {
	var p pipe
	if err := oracleWrite(&p, jsonMessage{ID: 1, Type: "shellmsg", F: map[string]string{"m": `{"Kind":"fire"}`}}); err != nil {
		t.Fatal(err)
	}
	_, err := NewConn(&p).Read()
	if !errors.Is(err, ErrFormat) {
		t.Fatalf("JSON frame: err = %v, want ErrFormat", err)
	}
}

// frame wraps a payload in a length prefix.
func frame(payload ...byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// rejects lists hand-built frames and the error class each must get.
var rejects = []struct {
	name  string
	frame []byte
	want  error
}{
	{"empty stream", nil, io.EOF},
	{"truncated header", []byte{0, 0}, io.ErrUnexpectedEOF},
	{"truncated payload", append(binary.BigEndian.AppendUint32(nil, 9), formatV1, 0), io.ErrUnexpectedEOF},
	{"over-long length", binary.BigEndian.AppendUint32(nil, MaxFrame+1), ErrTooLarge},
	{"empty payload", frame(), ErrMalformed},
	{"unknown format", frame(0x7f, 0), ErrFormat},
	{"truncated varint", frame(formatV1, 0x80), ErrMalformed},
	{"non-minimal varint", frame(formatV1, 0x81, 0x00, 0, 0, 0, 0, 0, 0), ErrMalformed},
	{"varint overflow", frame(formatV1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f), ErrMalformed},
	{"string past the end", frame(formatV1, 0, 5, 'a'), ErrMalformed},
	{"count past the end", frame(formatV1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f), ErrMalformed},
	{"unsorted keys", frame(formatV1, 0, 0, 0, 2, 1, 'b', 0, 1, 'a', 0, 0, 0, 0), ErrMalformed},
	{"duplicate keys", frame(formatV1, 0, 0, 0, 2, 1, 'a', 0, 1, 'a', 0, 0, 0, 0), ErrMalformed},
	{"trailing bytes", frame(formatV1, 0, 0, 0, 0, 0, 0, 0, 0), ErrMalformed},
}

func TestReadRejectsClassified(t *testing.T) {
	for _, tc := range rejects {
		_, err := NewConn(&pipe{*bytes.NewBuffer(tc.frame)}).Read()
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestReadAllocationBoundedByFrame: a count the frame cannot hold is
// rejected before anything is sized by it, so a small frame claiming a
// huge table costs a small allocation.
func TestReadAllocationBoundedByFrame(t *testing.T) {
	claims := [][]byte{
		frame(formatV1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f),          // F pairs
		frame(formatV1, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f),       // Cols
		frame(formatV1, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f),    // Rows
		frame(formatV1, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff, 0x0f), // one row's cells
	}
	const rounds = 100
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		for _, f := range claims {
			if _, err := NewConn(&pipe{*bytes.NewBuffer(f)}).Read(); !errors.Is(err, ErrMalformed) {
				t.Fatalf("claim %x: err = %v", f, err)
			}
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / (rounds * uint64(len(claims))); per > 1<<10 {
		t.Fatalf("a rejected 12-byte frame cost %d allocated bytes", per)
	}
}

// FuzzWireFrame feeds arbitrary bytes to Conn.Read.  Whatever arrives,
// Read returns a classified error or a message; it never panics, and a
// message it accepts encodes back to exactly the frame it was read from.
func FuzzWireFrame(f *testing.F) {
	for _, m := range corpus {
		var p pipe
		if err := NewConn(&p).Write(m); err != nil {
			f.Fatal(err)
		}
		f.Add(p.Bytes())
	}
	var legacy pipe
	if err := oracleWrite(&legacy, jsonMessage{ID: 1, Type: "shellmsg", F: map[string]string{"m": "{}"}}); err != nil {
		f.Fatal(err)
	}
	f.Add(legacy.Bytes())
	for _, tc := range rejects {
		f.Add(tc.frame)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		m, err := NewConn(&pipe{*bytes.NewBuffer(in)}).Read()
		if err != nil {
			for _, class := range []error{ErrFormat, ErrMalformed, ErrTooLarge, io.EOF, io.ErrUnexpectedEOF} {
				if errors.Is(err, class) {
					return
				}
			}
			t.Fatalf("unclassified error: %v", err)
		}
		var out pipe
		if err := NewConn(&out).Write(m); err != nil {
			t.Fatalf("re-encoding an accepted frame: %v", err)
		}
		if n := 4 + binary.BigEndian.Uint32(in); !bytes.Equal(out.Bytes(), in[:n]) {
			t.Fatalf("accepted frame re-encodes differently:\n in %x\nout %x", in[:n], out.Bytes())
		}
	})
}
