package transport

// The shell mesh's batch encoding, which the reliable journal
// (reliable_durable.go) stores messages in too: the Body of one TCP frame
// carries a count and that many messages, in send order.  A message is
//
//	Kind From To       interned strings
//	flags              which optional sections follow
//	Epoch              uvarint
//	Rule Trigger.Site  interned strings
//	Trigger.Seq        uvarint
//	Trigger.Desc       string
//	[flagTime]         Trigger.Time as a zigzag varint of UnixNano
//	[flagFail]         FailSite FailKind (interned), FailOp FailErr
//	[flagLink]         the reliability stamp: Epoch Seq Base, uvarints
//	[flagValues]       BindingsVal: count, then name (interned) and tagged value
//	[flagLiterals]     Bindings: count, then name (interned) and literal
//	[flagPayload]      Payload: count, then key (interned) and value
//
// with map entries in ascending key order.  Bindings go as data.Value
// tags straight from BindingsVal, so the receiver gets BindingsVal back and
// the sender never renders a literal.  The encoding is canonical: a batch
// decodes only if encoding what it decodes to reproduces it byte for byte,
// given the same interned-string history.  Decoding failures wrap
// wire.ErrMalformed.  Trigger.Time must lie within UnixNano's range
// (years 1678–2262).

import (
	"encoding/binary"
	"math"
	"slices"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/event"
	"cmtk/internal/wire"
)

// frameType is the wire.Message type of a message batch.
const frameType = "shellmsgb"

// maxInterned caps each direction's interned-string table per connection.
const maxInterned = 1024

// Message flag bits.
const (
	flagTime byte = 1 << iota
	flagFail
	flagLink
	flagValues
	flagLiterals
	flagPayload

	flagsKnown = flagPayload<<1 - 1
)

// minMessageBytes is the smallest encoded message: nine fields of one
// byte each and no optional section.
const minMessageBytes = 9

// data.Value tags.
const (
	tagNull byte = iota
	tagFalse
	tagTrue
	tagInt    // zigzag varint
	tagFloat  // IEEE 754 bits, little-endian
	tagString // length-prefixed bytes
)

// batchEncoder encodes the batches of one outbound connection.  Strings
// that repeat from message to message — kinds, shell and site ids, rule
// ids, binding names, payload keys — are interned: an interned field is
// 0 for the empty string, 1 and a literal for a string not yet in the
// table (both ends then append it), or 2+i for table entry i.  The table
// lives exactly as long as the connection, whose receiving session holds
// the mirror (batchDecoder), or, in the reliable journal, as one record
// or snapshot; past maxInterned entries new strings travel as literals
// and are not added.
type batchEncoder struct {
	ids  map[string]uint64
	keys []string // map-key sort scratch
	desc []byte   // Trigger.Desc render scratch
}

// appendBatch appends the encoding of msgs to dst.
func (e *batchEncoder) appendBatch(dst []byte, msgs []Message) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(msgs)))
	for i := range msgs {
		dst = e.appendMessage(dst, &msgs[i])
	}
	return dst
}

func (e *batchEncoder) appendMessage(dst []byte, m *Message) []byte {
	var flags byte
	if !m.Trigger.Time.IsZero() {
		flags |= flagTime
	}
	if m.FailSite != "" || m.FailKind != "" || m.FailOp != "" || m.FailErr != "" {
		flags |= flagFail
	}
	if m.Link != (LinkStamp{}) {
		flags |= flagLink
	}
	// Bindings wins when both forms are set, as it does at the receiver.
	if m.Bindings != nil {
		flags |= flagLiterals
	} else if m.BindingsVal != nil {
		flags |= flagValues
	}
	if m.Payload != nil {
		flags |= flagPayload
	}
	dst = e.appendInterned(dst, m.Kind)
	dst = e.appendInterned(dst, m.From)
	dst = e.appendInterned(dst, m.To)
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, m.Epoch)
	dst = e.appendInterned(dst, m.Rule)
	dst = e.appendInterned(dst, m.Trigger.Site)
	dst = binary.AppendUvarint(dst, m.Trigger.Seq)
	if m.Trigger.Desc == "" && m.TriggerEvent != nil {
		// The length prefix comes first, so render into scratch.
		e.desc = m.TriggerEvent.Desc.AppendTo(e.desc[:0])
		dst = binary.AppendUvarint(dst, uint64(len(e.desc)))
		dst = append(dst, e.desc...)
	} else {
		dst = wire.AppendString(dst, m.Trigger.Desc)
	}
	if flags&flagTime != 0 {
		dst = binary.AppendVarint(dst, m.Trigger.Time.UnixNano())
	}
	if flags&flagFail != 0 {
		dst = e.appendInterned(dst, m.FailSite)
		dst = e.appendInterned(dst, m.FailKind)
		dst = wire.AppendString(dst, m.FailOp)
		dst = wire.AppendString(dst, m.FailErr)
	}
	if flags&flagLink != 0 {
		dst = binary.AppendUvarint(dst, m.Link.Epoch)
		dst = binary.AppendUvarint(dst, m.Link.Seq)
		dst = binary.AppendUvarint(dst, m.Link.Base)
	}
	if flags&flagValues != 0 {
		e.keys = sortedKeys(e.keys, m.BindingsVal)
		dst = binary.AppendUvarint(dst, uint64(len(e.keys)))
		for _, k := range e.keys {
			dst = e.appendInterned(dst, k)
			dst = appendValue(dst, m.BindingsVal[k])
		}
	}
	if flags&flagLiterals != 0 {
		dst = e.appendStringMap(dst, m.Bindings)
	}
	if flags&flagPayload != 0 {
		dst = e.appendStringMap(dst, m.Payload)
	}
	return dst
}

func (e *batchEncoder) appendStringMap(dst []byte, m map[string]string) []byte {
	e.keys = sortedKeys(e.keys, m)
	dst = binary.AppendUvarint(dst, uint64(len(e.keys)))
	for _, k := range e.keys {
		dst = e.appendInterned(dst, k)
		dst = wire.AppendString(dst, m[k])
	}
	return dst
}

func (e *batchEncoder) appendInterned(dst []byte, s string) []byte {
	if s == "" {
		return append(dst, 0)
	}
	if id, ok := e.ids[s]; ok {
		return binary.AppendUvarint(dst, id+2)
	}
	if e.ids == nil {
		e.ids = map[string]uint64{}
	}
	if len(e.ids) < maxInterned {
		e.ids[s] = uint64(len(e.ids))
	}
	return wire.AppendString(append(dst, 1), s)
}

// sortedKeys returns m's keys in ascending order, reusing scratch.
func sortedKeys[V any](scratch []string, m map[string]V) []string {
	scratch = scratch[:0]
	for k := range m {
		scratch = append(scratch, k)
	}
	slices.Sort(scratch)
	return scratch
}

func appendValue(dst []byte, v data.Value) []byte {
	switch v.Kind() {
	case data.Bool:
		if v.Bool() {
			return append(dst, tagTrue)
		}
		return append(dst, tagFalse)
	case data.Int:
		return binary.AppendVarint(append(dst, tagInt), v.Int())
	case data.Float:
		return binary.LittleEndian.AppendUint64(append(dst, tagFloat), math.Float64bits(v.Float()))
	case data.String:
		return wire.AppendString(append(dst, tagString), v.Str())
	default:
		return append(dst, tagNull)
	}
}

// batchDecoder decodes the batches of one inbound connection, mirroring
// the sender's batchEncoder table.
type batchDecoder struct {
	strs []string
	seen map[string]struct{}
}

// decodeBatch decodes a batch body and appends its messages to into.  It
// validates the whole batch before returning any of it: on error the
// result is nil, and the table may have advanced, so the connection must
// not be used further.
func (d *batchDecoder) decodeBatch(into []Message, body []byte) ([]Message, error) {
	r := wire.NewDecoder(body)
	n := r.Count(minMessageBytes)
	if n == 0 {
		r.Fail("empty batch")
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		into = append(into, Message{})
		d.decodeMessage(&r, &into[len(into)-1])
	}
	if r.Err() == nil && r.Len() > 0 {
		r.Fail("%d trailing bytes", r.Len())
	}
	if err := r.Err(); err != nil {
		clear(into)
		return nil, err
	}
	return into, nil
}

func (d *batchDecoder) decodeMessage(r *wire.Decoder, m *Message) {
	m.Kind = d.interned(r)
	m.From = d.interned(r)
	m.To = d.interned(r)
	flags := r.Byte()
	if flags&^flagsKnown != 0 {
		r.Fail("unknown message flags %#x", flags)
	}
	if flags&flagValues != 0 && flags&flagLiterals != 0 {
		r.Fail("bindings sent both as values and as literals")
	}
	m.Epoch = r.Uvarint()
	m.Rule = d.interned(r)
	m.Trigger.Site = d.interned(r)
	m.Trigger.Seq = r.Uvarint()
	m.Trigger.Desc = string(r.Bytes())
	if flags&flagTime != 0 {
		m.Trigger.Time = time.Unix(0, r.Varint())
	}
	if flags&flagFail != 0 {
		m.FailSite = d.interned(r)
		m.FailKind = d.interned(r)
		m.FailOp = string(r.Bytes())
		m.FailErr = string(r.Bytes())
		if m.FailSite == "" && m.FailKind == "" && m.FailOp == "" && m.FailErr == "" {
			r.Fail("empty failure section")
		}
	}
	if flags&flagLink != 0 {
		m.Link.Epoch = r.Uvarint()
		m.Link.Seq = r.Uvarint()
		m.Link.Base = r.Uvarint()
		if m.Link == (LinkStamp{}) {
			r.Fail("empty link stamp")
		}
	}
	if flags&flagValues != 0 {
		n := r.Count(2)
		m.BindingsVal = make(event.Bindings, n)
		var prev string
		for i := 0; i < n && r.Err() == nil; i++ {
			k := d.key(r, i, prev)
			prev = k
			m.BindingsVal[k] = decodeValue(r)
		}
	}
	if flags&flagLiterals != 0 {
		m.Bindings = d.stringMap(r)
	}
	if flags&flagPayload != 0 {
		m.Payload = d.stringMap(r)
	}
}

func (d *batchDecoder) stringMap(r *wire.Decoder) map[string]string {
	n := r.Count(2)
	out := make(map[string]string, n)
	var prev string
	for i := 0; i < n && r.Err() == nil; i++ {
		k := d.key(r, i, prev)
		prev = k
		out[k] = string(r.Bytes())
	}
	return out
}

// key reads the i-th key of a map whose previous key was prev.
func (d *batchDecoder) key(r *wire.Decoder, i int, prev string) string {
	k := d.interned(r)
	if i > 0 && k <= prev {
		r.Fail("map keys out of order at %q", k)
	}
	return k
}

func (d *batchDecoder) interned(r *wire.Decoder) string {
	ref := r.Uvarint()
	switch {
	case ref == 0:
		return ""
	case ref == 1:
		b := r.Bytes()
		if len(b) == 0 {
			r.Fail("empty or truncated literal")
			return ""
		}
		if _, dup := d.seen[string(b)]; dup {
			r.Fail("interned string %q sent again as a literal", b)
			return ""
		}
		s := string(b)
		if len(d.strs) < maxInterned {
			if d.seen == nil {
				d.seen = map[string]struct{}{}
			}
			d.seen[s] = struct{}{}
			d.strs = append(d.strs, s)
		}
		return s
	case ref-2 < uint64(len(d.strs)):
		return d.strs[ref-2]
	default:
		r.Fail("reference %d to an uninterned string", ref)
		return ""
	}
}

func decodeValue(r *wire.Decoder) data.Value {
	switch tag := r.Byte(); tag {
	case tagNull:
		return data.NullValue
	case tagFalse:
		return data.NewBool(false)
	case tagTrue:
		return data.NewBool(true)
	case tagInt:
		return data.NewInt(r.Varint())
	case tagFloat:
		return data.NewFloat(math.Float64frombits(r.Uint64()))
	case tagString:
		return data.NewString(string(r.Bytes()))
	default:
		r.Fail("unknown value tag %d", tag)
		return data.NullValue
	}
}
