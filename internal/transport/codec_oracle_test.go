package transport

import (
	"encoding/json"
	"fmt"
	"strconv"

	"cmtk/internal/wire"
)

// The shell-to-shell hop as it was before the binary codec, kept verbatim
// (bar the dial and round trip around it) as the oracle TestCodecMatches-
// JSONOracle holds the codec to.  Messages crossed as JSON, carried as a
// string field of a JSON wire frame; Reliable's stamp rode in Payload as
// decimal strings.

// Where Reliable carried its stamp in Payload.
const (
	oracleSeqKey   = "rel.seq"
	oracleBaseKey  = "rel.base"
	oracleEpochKey = "rel.epoch"
	oracleAckKey   = "rel.next"
)

// oracleFrame is sendFrame's encoding half.
func oracleFrame(batch []Message) (wire.Message, error) {
	for i := range batch {
		batch[i].WireReady()
		batch[i].TriggerEvent = nil // never crosses the network
	}
	var buf []byte
	var err error
	typ := "shellmsgb"
	if len(batch) == 1 {
		// A single message keeps the original frame shape, so batching and
		// non-batching endpoints interoperate.
		typ = "shellmsg"
		buf, err = json.Marshal(batch[0])
	} else {
		buf, err = json.Marshal(batch)
	}
	if err != nil {
		return wire.Message{}, fmt.Errorf("transport: marshal: %w", err)
	}
	return wire.Message{Type: typ, F: map[string]string{"m": string(buf)}}, nil
}

// oracleHandle is tcpSession.Handle's decoding half.
func oracleHandle(m wire.Message, deliver func(Message)) error {
	switch m.Type {
	case "shellmsg":
		var msg Message
		if err := json.Unmarshal([]byte(m.Field("m")), &msg); err != nil {
			return fmt.Errorf("transport: bad message: %w", err)
		}
		deliver(msg)
	case "shellmsgb":
		// A batched frame: the sender's flusher coalesced consecutive
		// messages for us into one frame.  Unpacking in slice order keeps
		// property-7 delivery order.
		var msgs []Message
		if err := json.Unmarshal([]byte(m.Field("m")), &msgs); err != nil {
			return fmt.Errorf("transport: bad batch: %w", err)
		}
		for _, msg := range msgs {
			deliver(msg)
		}
	default:
		return fmt.Errorf("transport: unknown request %q", m.Type)
	}
	return nil
}

// oracleStamp moves a message's link stamp where Send and withBase put
// it, and an ack's point where Deliver put it.
func oracleStamp(m Message) Message {
	if m.Kind == relAckKind {
		m.Payload = map[string]string{oracleAckKey: strconv.FormatUint(m.Link.Seq, 10)}
		m.Link = LinkStamp{}
		return m
	}
	if m.Link.Epoch == 0 {
		return m
	}
	p := make(map[string]string, len(m.Payload)+3)
	for k, v := range m.Payload {
		p[k] = v
	}
	p[oracleSeqKey] = strconv.FormatUint(m.Link.Seq, 10)
	p[oracleEpochKey] = strconv.FormatUint(m.Link.Epoch, 10)
	p[oracleBaseKey] = strconv.FormatUint(m.Link.Base, 10)
	m.Payload = p
	m.Link = LinkStamp{}
	return m
}

// oracleUnstamp reads the stamp back as Deliver and handleAck parsed it,
// stripping it as stripSeq did.
func oracleUnstamp(m Message) Message {
	if m.Kind == relAckKind {
		ack, _ := strconv.ParseUint(m.Payload[oracleAckKey], 10, 64)
		m.Payload = nil
		m.Link = LinkStamp{Seq: ack}
		return m
	}
	seqStr, ok := m.Payload[oracleSeqKey]
	if !ok {
		return m
	}
	seq, _ := strconv.ParseUint(seqStr, 10, 64)
	epoch, _ := strconv.ParseUint(m.Payload[oracleEpochKey], 10, 64)
	base, _ := strconv.ParseUint(m.Payload[oracleBaseKey], 10, 64)
	p := make(map[string]string, len(m.Payload))
	for k, v := range m.Payload {
		switch k {
		case oracleSeqKey, oracleBaseKey, oracleEpochKey:
		default:
			p[k] = v
		}
	}
	if len(p) == 0 {
		m.Payload = nil
	} else {
		m.Payload = p
	}
	m.Link = LinkStamp{Epoch: epoch, Seq: seq, Base: base}
	return m
}
