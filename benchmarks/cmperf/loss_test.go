package main

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cmtk/internal/cmi"
	"cmtk/internal/data"
	"cmtk/internal/transport"
)

// lossyNet swallows the nth firing that crosses it and forwards
// everything else, optional interfaces included.
type lossyNet struct {
	inner transport.Network
	n     int64
	seen  atomic.Int64
	lost  atomic.Int64
}

func (l *lossyNet) Join(id string, recv func(transport.Message)) (transport.Endpoint, error) {
	ep, err := l.inner.Join(id, recv)
	if err != nil {
		return nil, err
	}
	return &lossyEndpoint{Endpoint: ep, net: l}, nil
}

type lossyEndpoint struct {
	transport.Endpoint
	net *lossyNet
}

func (e *lossyEndpoint) Send(to string, m transport.Message) error {
	if m.Kind == "fire" && e.net.seen.Add(1) == e.net.n {
		e.net.lost.Add(1)
		return nil
	}
	return e.Endpoint.Send(to, m)
}

func (e *lossyEndpoint) Flush() error { return flushEndpoint(e.Endpoint) }

func (e *lossyEndpoint) OnLinkEvent(fn func(transport.LinkEvent)) { watchEndpoint(e.Endpoint, fn) }

// TestLostMessageIsOneFailedOp: on a mesh built without Reliable, a
// network that swallows one message must not hang the closed loop.  The
// run ends within the deadline and counts exactly one failed update.
func TestLostMessageIsOneFailedOp(t *testing.T) {
	const updates = 300
	lossy := &lossyNet{n: 120}
	table := newOpTable(1 << 10)
	table.reset(1)
	m, err := newMesh(meshConfig{tcp: true, wrapRaw: func(n transport.Network) transport.Network {
		lossy.inner = n
		return lossy
	}}, table)
	if err != nil {
		t.Fatal(err)
	}
	defer m.stop()
	gen := newUpdateGen(1, "loss", meshKeys)

	done := make(chan struct{})
	began := time.Now()
	go func() {
		defer close(done)
		m.closedLoop(gen, 32, func(t *opTable) bool { return t.issued.Load() >= updates })
		table.settle()
	}()
	select {
	case <-done:
	case <-time.After(20 * opDeadline):
		t.Fatalf("the closed loop is still waiting after %s", time.Since(began))
	}
	if lossy.lost.Load() != 1 {
		t.Fatalf("the network swallowed %d messages, want 1", lossy.lost.Load())
	}
	if table.failed != 1 {
		t.Errorf("%d failed updates, want exactly 1: %v", table.failed, table.failures)
	}
	if got := table.completed.Load(); got != updates-1 {
		t.Errorf("%d updates completed, want %d", got, updates-1)
	}
	if table.outstanding() != 0 {
		t.Errorf("%d updates still outstanding", table.outstanding())
	}
	if len(table.failures) != 1 || !containsAll(table.failures[0], "not seen at the replica", "cmtk_shell_") {
		t.Errorf("the failure does not carry the deadline and the counter dump: %q", table.failures)
	}
	if elapsed := time.Since(began); elapsed < opDeadline {
		t.Errorf("the run ended after %s, before the lost update's deadline of %s", elapsed, opDeadline)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !strings.Contains(s, sub) {
			return false
		}
	}
	return true
}

// fakeEndpoint offers both optional interfaces and records their use.
type fakeEndpoint struct {
	sent     []transport.Message
	flushed  int
	watchers int
	closed   bool
}

func (f *fakeEndpoint) Send(_ string, m transport.Message) error {
	f.sent = append(f.sent, m)
	return nil
}
func (f *fakeEndpoint) Close() error                          { f.closed = true; return nil }
func (f *fakeEndpoint) Flush() error                          { f.flushed++; return nil }
func (f *fakeEndpoint) OnLinkEvent(func(transport.LinkEvent)) { f.watchers++ }

type fakeNet struct {
	ep   *fakeEndpoint
	recv func(transport.Message)
}

func (n *fakeNet) Join(_ string, recv func(transport.Message)) (transport.Endpoint, error) {
	n.recv = recv
	return n.ep, nil
}

// bareEndpoint offers neither optional interface.
type bareEndpoint struct{ transport.Endpoint }

// fakeIface records what reaches the translator.
type fakeIface struct {
	cmi.Interface
	writes []data.Value
	notify cmi.NotifyFunc
}

func (f *fakeIface) Write(_ data.ItemName, v data.Value) error {
	f.writes = append(f.writes, v)
	return nil
}
func (f *fakeIface) Subscribe(_ string, fn cmi.NotifyFunc) (func(), error) {
	f.notify = fn
	return func() {}, nil
}

// TestDecoratorsChangeNothing: the network and translator decorators pass
// every message, write and notification through untouched, stamp the
// boundaries they sit on, and forward Flusher and link-event registration
// to an endpoint that offers them, while staying inert on one that does
// not.
func TestDecoratorsChangeNothing(t *testing.T) {
	tr := newTracer(16)
	inner := &fakeNet{ep: &fakeEndpoint{}}
	net := &tracedNet{inner: inner, tr: tr, send: stWire, sendRet: stWireRet, recv: stRecvWire, capture: true}
	var got []transport.Message
	ep, err := net.Join("shell-A", func(m transport.Message) { got = append(got, m) })
	if err != nil {
		t.Fatal(err)
	}
	fire := transport.Message{Kind: "fire", Rule: "r", Bindings: map[string]string{"b": "3"}}
	ack := transport.Message{Kind: "rel.ack"}
	for _, m := range []transport.Message{fire, ack} {
		if err := ep.Send("shell-B", m); err != nil {
			t.Fatal(err)
		}
		inner.recv(m)
	}
	if len(inner.ep.sent) != 2 || len(got) != 2 || got[0].Rule != "r" || got[1].Kind != "rel.ack" {
		t.Fatalf("sent %v, delivered %v", inner.ep.sent, got)
	}
	for _, st := range []int{stWire, stWireRet, stRecvWire} {
		if tr.at(2, st) == 0 {
			t.Errorf("boundary %d of update 3 was not stamped", st)
		}
	}
	if len(tr.captured) != 1 {
		t.Errorf("captured %d firings, want 1", len(tr.captured))
	}
	if err := ep.(transport.Flusher).Flush(); err != nil || inner.ep.flushed != 1 {
		t.Errorf("Flush was not forwarded (%v, %d calls)", err, inner.ep.flushed)
	}
	ep.(interface {
		OnLinkEvent(func(transport.LinkEvent))
	}).OnLinkEvent(func(transport.LinkEvent) {})
	if inner.ep.watchers != 1 {
		t.Errorf("OnLinkEvent was not forwarded")
	}
	if err := ep.Close(); err != nil || !inner.ep.closed {
		t.Errorf("Close was not forwarded")
	}

	bare := &tracedEndpoint{Endpoint: bareEndpoint{}, n: net}
	if err := bare.Flush(); err != nil {
		t.Errorf("Flush on an endpoint without one: %v", err)
	}
	bare.OnLinkEvent(func(transport.LinkEvent) {})

	fi := &fakeIface{}
	ti := &tracedIface{Interface: fi, tr: tr}
	if err := ti.Write(data.Item("salary2", data.NewString("e1")), data.NewInt(5)); err != nil || len(fi.writes) != 1 {
		t.Fatalf("Write was not forwarded")
	}
	var notified []data.Value
	if _, err := ti.Subscribe("salary1", func(_ data.ItemName, _, v data.Value) { notified = append(notified, v) }); err != nil {
		t.Fatal(err)
	}
	fi.notify(data.Item("salary1", data.NewString("e1")), data.NewInt(0), data.NewInt(6))
	if len(notified) != 1 || notified[0].Int() != 6 {
		t.Fatalf("notification was not forwarded: %v", notified)
	}
	if tr.at(4, stWrite) == 0 || tr.at(5, stNotify) == 0 {
		t.Errorf("translator boundaries were not stamped")
	}
}
