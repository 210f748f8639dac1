package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Frame decoding errors.  Every failure to decode a frame wraps exactly
// one of them, so a peer speaking another format, a frame over the size
// limit and corrupt or hostile bytes are told apart without parsing
// messages.  Truncation of the stream itself surfaces as io.EOF or
// io.ErrUnexpectedEOF.
var (
	// ErrFormat: the frame's format byte is not one this build reads — a
	// JSON frame ('{') from a build that predates the binary envelope, or
	// a newer format.
	ErrFormat = errors.New("wire: unknown frame format")
	// ErrMalformed: the frame is in a known format but does not decode —
	// truncated fields, non-minimal varints, unsorted or duplicate keys,
	// counts larger than the bytes that follow, trailing bytes.
	ErrMalformed = errors.New("wire: malformed frame")
	// ErrTooLarge: the length prefix exceeds MaxFrame.
	ErrTooLarge = errors.New("wire: frame exceeds size limit")
)

// formatV1 is the first byte of every binary frame payload.
const formatV1 = 0x01

// appendMessage appends the frame payload of m to dst: the format byte,
// a uvarint ID, Type, Err, the F pairs in ascending key order, Cols, Rows
// and Body, every string and byte field length-prefixed.  keys is scratch
// for sorting F and is returned for reuse.  The encoding is canonical:
// decodeMessage accepts exactly the payloads this function produces.
func appendMessage(dst []byte, m Message, keys []string) ([]byte, []string) {
	dst = append(dst, formatV1)
	dst = binary.AppendUvarint(dst, m.ID)
	dst = AppendString(dst, m.Type)
	dst = AppendString(dst, m.Err)
	keys = keys[:0]
	for k := range m.F {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = AppendString(dst, k)
		dst = AppendString(dst, m.F[k])
	}
	clear(keys)
	dst = appendStrings(dst, m.Cols)
	dst = binary.AppendUvarint(dst, uint64(len(m.Rows)))
	for _, row := range m.Rows {
		dst = appendStrings(dst, row)
	}
	dst = binary.AppendUvarint(dst, uint64(len(m.Body)))
	return append(dst, m.Body...), keys
}

func appendStrings(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = AppendString(dst, s)
	}
	return dst
}

// decodeMessage decodes one frame payload.  Body aliases buf; every other
// field is copied out.  prevType is the previous frame's Type on the same
// connection and is reused when it repeats, so a stream of same-typed
// frames does not allocate a Type string per frame.
func decodeMessage(buf []byte, prevType string) (Message, error) {
	if len(buf) == 0 {
		return Message{}, fmt.Errorf("%w: empty frame", ErrMalformed)
	}
	if buf[0] != formatV1 {
		if buf[0] == '{' {
			return Message{}, fmt.Errorf("%w: a JSON frame (the format before the binary envelope)", ErrFormat)
		}
		return Message{}, fmt.Errorf("%w: format byte %#x", ErrFormat, buf[0])
	}
	d := NewDecoder(buf[1:])
	var m Message
	m.ID = d.Uvarint()
	if typ := d.Bytes(); string(typ) == prevType {
		m.Type = prevType
	} else {
		m.Type = string(typ)
	}
	m.Err = string(d.Bytes())
	if n := d.Count(2); n > 0 {
		m.F = make(map[string]string, n)
		var prev []byte
		for i := 0; i < n && d.Err() == nil; i++ {
			k := d.Bytes()
			if i > 0 && string(k) <= string(prev) {
				d.Fail("field keys out of order at %q", k)
			}
			prev = k
			m.F[string(k)] = string(d.Bytes())
		}
	}
	m.Cols = decodeStrings(&d)
	if n := d.Count(1); n > 0 {
		m.Rows = make([][]string, n)
		for i := range m.Rows {
			m.Rows[i] = decodeStrings(&d)
		}
	}
	if body := d.Bytes(); len(body) > 0 {
		m.Body = body
	}
	if d.Err() == nil && d.Len() > 0 {
		d.Fail("%d trailing bytes", d.Len())
	}
	if err := d.Err(); err != nil {
		return Message{}, err
	}
	return m, nil
}

func decodeStrings(d *Decoder) []string {
	n := d.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = string(d.Bytes())
	}
	return out
}

// AppendString appends s to dst as a uvarint length followed by its bytes.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// Decoder reads the binary encoding's primitives — minimal uvarints,
// zigzag varints, fixed 64-bit words and length-prefixed byte strings —
// from a byte slice.  The first failure latches: later reads return zero
// values, and Err reports the failure wrapped in ErrMalformed.  Protocols
// that carry their own encoding inside Message.Body decode it with the
// same primitives, so one rejection taxonomy covers the envelope and what
// it carries.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder returns a Decoder reading b.
func NewDecoder(b []byte) Decoder { return Decoder{b: b} }

// Err reports the first decoding failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Len reports the bytes not yet read.
func (d *Decoder) Len() int { return len(d.b) }

// Fail latches a decoding failure unless one is already latched.
func (d *Decoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
		d.b = nil
	}
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if len(d.b) == 0 {
		d.Fail("truncated")
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

// Uvarint reads a minimally encoded unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	x, n := binary.Uvarint(d.b)
	switch {
	case n == 0:
		d.Fail("truncated varint")
		return 0
	case n < 0:
		d.Fail("varint overflows 64 bits")
		return 0
	case n > 1 && d.b[n-1] == 0:
		d.Fail("non-minimal varint")
		return 0
	}
	d.b = d.b[n:]
	return x
}

// Varint reads a minimally encoded zigzag varint.
func (d *Decoder) Varint() int64 {
	u := d.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Uint64 reads a little-endian 64-bit word.
func (d *Decoder) Uint64() uint64 {
	if len(d.b) < 8 {
		d.Fail("truncated word")
		return 0
	}
	x := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return x
}

// Bytes reads a length-prefixed byte string.  The result aliases the
// decoder's input.
func (d *Decoder) Bytes() []byte {
	n := d.Uvarint()
	if n > uint64(len(d.b)) {
		d.Fail("string of %d bytes with %d left", n, len(d.b))
		return nil
	}
	s := d.b[:n:n]
	d.b = d.b[n:]
	return s
}

// Count reads an element count for elements that each take at least
// minSize bytes, rejecting a count the remaining input cannot hold — so a
// caller may size an allocation by it without trusting the peer.
func (d *Decoder) Count(minSize int) int {
	n := d.Uvarint()
	if n > uint64(len(d.b)/minSize) {
		d.Fail("count %d exceeds the %d bytes left", n, len(d.b))
		return 0
	}
	return int(n)
}
