package main

// Spans are taken from outside the program: the benchmark times its own
// calls into public functions and interposes on seams the program already
// offers (core.Site.Wrap, a transport.Network decorator supplied through
// core.Config.Network, triggers on the two databases).  A mesh update is
// recognised at every seam by its salary value, which the generator never
// reuses.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cmtk/internal/cmi"
	"cmtk/internal/data"
	"cmtk/internal/transport"
)

var epoch = time.Now()

// nowNS is monotonic nanoseconds since the process started.
func nowNS() int64 { return int64(time.Since(epoch)) }

// Boundary timestamps of one mesh update, in the order the blocking path
// crosses them.  Consecutive boundaries tile the path, so the tiles of an
// update sum to its latency exactly.
const (
	stDue      = iota // the update was due (open loop) or issued (closed loop)
	stExec            // source Exec entered
	stApplied         // source database applied it and began firing triggers
	stNotify          // translator handed the notification to the shell
	stSend            // shell handed the firing to the transport
	stWire            // reliable layer handed it to the raw endpoint
	stWireRet         // raw endpoint's Send returned
	stRecvWire        // peer's raw endpoint delivered it
	stRecv            // peer's reliable layer released it to the shell
	stWrite           // peer shell called the replica translator
	stDone            // replica database applied it
	nStamps
)

// tile is one span of the blocking path: it runs from boundary from to
// boundary to.  tcp_send is the one span that is not a tile.
type tile struct {
	name     string
	from, to int
}

var tiles = []tile{
	{"gen.late_us", stDue, stExec},
	{"ris.exec_us", stExec, stApplied},
	{"translator.notify_us", stApplied, stNotify},
	{"shell.src_us", stNotify, stSend},
	{"transport.send_us", stSend, stWire},
	{"transport.flight_us", stWire, stRecvWire},
	{"transport.deliver_us", stRecvWire, stRecv},
	{"shell.dst_us", stRecv, stWrite},
	{"translator.write_us", stWrite, stDone},
}

// maxCaptured bounds the wire-form messages kept for the isolated marshal,
// framing and journal drives.
const maxCaptured = 512

// tracer holds the boundary timestamps of one round's updates.
type tracer struct {
	first int64 // value of the update in slot 0
	st    [][nStamps]int64

	mu       sync.Mutex
	captured []transport.Message
}

func newTracer(capacity int) *tracer {
	return &tracer{first: 1, st: make([][nStamps]int64, capacity)}
}

// reset clears the table for a round whose first update has value first.
func (t *tracer) reset(first int64) {
	clear(t.st)
	t.captured = nil
	t.first = first
}

// stamp records the first time an update crosses a boundary; a retransmit
// crossing it again leaves the first crossing in place.
func (t *tracer) stamp(val int64, which int) {
	i := val - t.first
	if i < 0 || i >= int64(len(t.st)) {
		return
	}
	atomic.CompareAndSwapInt64(&t.st[i][which], 0, nowNS())
}

// set records a boundary the generator itself crosses.
func (t *tracer) set(i, which int, at int64) {
	if i < len(t.st) {
		atomic.StoreInt64(&t.st[i][which], at)
	}
}

func (t *tracer) at(i, which int) int64 { return atomic.LoadInt64(&t.st[i][which]) }

// capture keeps a copy of a firing as the raw endpoint is about to send it.
func (t *tracer) capture(m transport.Message) {
	t.mu.Lock()
	if len(t.captured) < maxCaptured {
		t.captured = append(t.captured, m)
	}
	t.mu.Unlock()
}

// fireValue extracts the salary a firing carries, from whichever form the
// bindings are in at this point of the path.
func fireValue(m transport.Message) (int64, bool) {
	if m.Kind != "fire" {
		return 0, false
	}
	if v, ok := m.BindingsVal["b"]; ok && v.Kind() == data.Int {
		return v.Int(), true
	}
	if s, ok := m.Bindings["b"]; ok {
		n, err := strconv.ParseInt(s, 10, 64)
		return n, err == nil
	}
	return 0, false
}

// tracedNet decorates a Network: firings are stamped as they enter Send,
// as Send returns (when sendRet is a boundary) and as they are delivered.
// The raw seam also captures the messages it sends.
type tracedNet struct {
	inner               transport.Network
	tr                  *tracer
	send, sendRet, recv int
	capture             bool
}

func (n *tracedNet) Join(shellID string, recv func(transport.Message)) (transport.Endpoint, error) {
	ep, err := n.inner.Join(shellID, func(m transport.Message) {
		if v, ok := fireValue(m); ok {
			n.tr.stamp(v, n.recv)
		}
		recv(m)
	})
	if err != nil {
		return nil, err
	}
	return &tracedEndpoint{Endpoint: ep, n: n}, nil
}

// tracedEndpoint forwards everything the wrapped endpoint offers,
// including the optional Flusher and link-event interfaces, so the shell
// behaves as it does on the bare endpoint.
type tracedEndpoint struct {
	transport.Endpoint
	n *tracedNet
}

func (e *tracedEndpoint) Send(to string, m transport.Message) error {
	v, ok := fireValue(m)
	if !ok {
		return e.Endpoint.Send(to, m)
	}
	e.n.tr.stamp(v, e.n.send)
	if e.n.capture {
		e.n.tr.capture(m)
	}
	err := e.Endpoint.Send(to, m)
	if e.n.sendRet >= 0 {
		e.n.tr.stamp(v, e.n.sendRet)
	}
	return err
}

func (e *tracedEndpoint) Flush() error { return flushEndpoint(e.Endpoint) }

func (e *tracedEndpoint) OnLinkEvent(fn func(transport.LinkEvent)) {
	watchEndpoint(e.Endpoint, fn)
}

func flushEndpoint(ep transport.Endpoint) error {
	if fl, ok := ep.(transport.Flusher); ok {
		return fl.Flush()
	}
	return nil
}

func watchEndpoint(ep transport.Endpoint, fn func(transport.LinkEvent)) {
	if lw, ok := ep.(interface {
		OnLinkEvent(func(transport.LinkEvent))
	}); ok {
		lw.OnLinkEvent(fn)
	}
}

// tracedIface decorates a site's translator: notifications are stamped as
// the translator hands them to the shell, writes as the shell calls them.
type tracedIface struct {
	cmi.Interface
	tr *tracer
}

func (t *tracedIface) Subscribe(base string, fn cmi.NotifyFunc) (func(), error) {
	return t.Interface.Subscribe(base, func(item data.ItemName, old, new data.Value) {
		if new.Kind() == data.Int {
			t.tr.stamp(new.Int(), stNotify)
		}
		fn(item, old, new)
	})
}

func (t *tracedIface) Write(item data.ItemName, v data.Value) error {
	if v.Kind() == data.Int {
		t.tr.stamp(v.Int(), stWrite)
	}
	return t.Interface.Write(item, v)
}

// tileSamples returns, for the complete updates in slots [from, to), the
// duration of every tile, of the raw endpoint's Send call, and of the
// update as a whole, in nanoseconds.
func (t *tracer) tileSamples(from, to int) map[string][]int64 {
	out := map[string][]int64{}
	for i := from; i < to && i < len(t.st); i++ {
		due, done := t.at(i, stDue), t.at(i, stDone)
		if due == 0 || done == 0 {
			continue
		}
		out["op"] = append(out["op"], done-due)
		for _, tl := range tiles {
			if a, b := t.at(i, tl.from), t.at(i, tl.to); a != 0 && b != 0 {
				out[tl.name] = append(out[tl.name], b-a)
			}
		}
		if a, b := t.at(i, stWire), t.at(i, stWireRet); a != 0 && b != 0 {
			out["transport.tcp_send_us"] = append(out["transport.tcp_send_us"], b-a)
		}
	}
	return out
}

// spanRecord is one span as written to spans.json.
type spanRecord struct {
	Op      int64  `json:"op"` // shared by the spans of one update
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  string `json:"parent"` // the span that caused this one
}

// maxSpanOps bounds how many updates' spans are written out.
const maxSpanOps = 2000

// spans renders the complete updates in slots [from, to) as span records.
func (t *tracer) spans(workload string, from, to int) []spanRecord {
	var out []spanRecord
	for i := from; i < to && len(out) < maxSpanOps*(len(tiles)+2); i++ {
		if t.at(i, stDone) == 0 || t.at(i, stDue) == 0 {
			continue
		}
		op := t.first + int64(i)
		root := workload + ".op"
		out = append(out, spanRecord{Op: op, Name: root, StartNS: t.at(i, stDue), EndNS: t.at(i, stDone)})
		for _, tl := range tiles {
			a, b := t.at(i, tl.from), t.at(i, tl.to)
			if a == 0 || b == 0 {
				continue
			}
			out = append(out, spanRecord{Op: op, Name: tl.name, StartNS: a, EndNS: b, Parent: root})
		}
		if a, b := t.at(i, stWire), t.at(i, stWireRet); a != 0 && b != 0 {
			out = append(out, spanRecord{Op: op, Name: "transport.tcp_send_us", StartNS: a, EndNS: b, Parent: "transport.send_us"})
		}
	}
	return out
}

// writeSpans writes the kept spans; the file is the per-update evidence
// behind the per-layer medians.
func writeSpans(dir string, spans []spanRecord) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans.json"), buf, 0o644)
}
