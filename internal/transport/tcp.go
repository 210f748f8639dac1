package transport

import (
	"fmt"
	"sync"

	"cmtk/internal/obs"
	"cmtk/internal/wire"
)

// TCP is a mesh endpoint over real sockets.  Each shell listens on its
// own address and dials peers lazily, keeping one connection per peer.
// Inbound frames are acknowledged at the wire layer immediately and
// handed to a per-sender FIFO worker, so links stay ordered per (sender,
// receiver) pair like the in-process Bus while the receive callback never
// blocks the wire reply.  The decoupling matters: a handler that sends
// back to its peer while still inside the inbound frame (an ack arriving
// mid-request, a recovery broadcast) would otherwise form a cycle of
// requests each awaiting a reply the other side can only produce after
// its own nested send completes — a distributed deadlock broken only by
// request timeouts.
//
// Sends are batched: Send enqueues on a per-peer outbox and one flusher
// goroutine per peer coalesces everything queued while the previous
// round-trip was in flight into a single wire frame (flush-on-idle: under
// light load each frame carries one message and latency is one
// round-trip; under load the batch grows to amortize the round-trip
// without adding any timer delay).  The flusher encodes each batch
// straight into one frame body with the binary codec of codec.go, whose
// interned-string table lives as long as the connection.  Per-link FIFO
// order — the Appendix A.2 property-7 delivery assumption — is preserved
// end to end: the single flusher drains the outbox in send order, frames
// are serialized one round-trip at a time, and the receiver unpacks each
// frame in order into the per-sender inbox.  Send therefore only reports
// synchronous routing problems; delivery failures surface as LinkEvents
// through OnLinkEvent (on a raw TCP endpoint a failed frame means its
// messages are lost for good — LinkGaveUp — while reliable.go layered on
// top retransmits until acked).
type TCP struct {
	shellID  string
	addrs    map[string]string           // shellID -> address
	resolve  func(string) (string, bool) // dynamic lookup when addrs is nil
	recv     func(Message)
	dialOpts []wire.DialOption
	srv      *wire.Server
	done     chan struct{}
	mu       sync.Mutex
	peers    map[string]*tcpPeer
	inbox    map[string]chan Message // per-sender serial delivery queues
	closed   bool

	outMu   sync.Mutex
	outCond *sync.Cond // signalled when an outbox drains (Flush waits on it)
	outbox  map[string]*tcpOut
	linkFns []func(LinkEvent)
	mBatch  *obs.Histogram
}

// tcpOut is one peer's send-side batch queue.  pending and spare are two
// buffers that trade places each round: Send appends to pending while the
// flusher ships the other, and the shipped one comes back as spare, so a
// steady stream of batches re-grows neither.
type tcpOut struct {
	addr    string
	pending []Message
	spare   []Message
	running bool // a flusher goroutine owns this outbox
}

// tcpPeer is one outbound connection with the encoder bound to it: the
// interned-string table lives exactly as long as the connection, as its
// mirror in the receiving session does.  Only the peer's flusher uses enc
// and buf.
type tcpPeer struct {
	c   *wire.Client
	enc batchEncoder
	buf []byte
}

// tcpBatchBuckets sizes the cmtk_transport_batch_size histogram: batch
// sizes are small integers, not durations.
var tcpBatchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// NewTCP starts a TCP endpoint for shellID listening on listenAddr.
// addrs maps every peer shell ID to its address (the routing table
// established "during initialization", Section 4.1).  recv is invoked for
// each inbound message.  dialOpts tune the peer connections (timeouts).
func NewTCP(shellID, listenAddr string, addrs map[string]string, recv func(Message), dialOpts ...wire.DialOption) (*TCP, error) {
	t := &TCP{
		shellID:  shellID,
		addrs:    addrs,
		recv:     recv,
		dialOpts: dialOpts,
		done:     make(chan struct{}),
		peers:    map[string]*tcpPeer{},
		inbox:    map[string]chan Message{},
		outbox:   map[string]*tcpOut{},
		mBatch: obs.Default.Histogram("cmtk_transport_batch_size",
			"Messages coalesced into one wire frame by the TCP send-side batcher.",
			tcpBatchBuckets, "shell").With(shellID),
	}
	t.outCond = sync.NewCond(&t.outMu)
	srv, err := wire.Serve(listenAddr, tcpHandler{t})
	if err != nil {
		return nil, err
	}
	t.srv = srv
	return t, nil
}

// Addr returns the listening address.
func (t *TCP) Addr() string { return t.srv.Addr() }

type tcpHandler struct{ t *TCP }

func (h tcpHandler) NewSession(func(wire.Message) error) (wire.Session, error) {
	return &tcpSession{t: h.t}, nil
}

// tcpSession is one inbound connection: the decoder mirroring the
// sender's interned-string table, and a message buffer reused per frame.
type tcpSession struct {
	t    *TCP
	dec  batchDecoder
	msgs []Message
	err  error // a frame failed to decode; the table is no longer trusted
}

func (s *tcpSession) Handle(m wire.Message) wire.Message {
	if m.Type != frameType {
		return wire.ErrorReply(m, fmt.Errorf("transport: unknown request %q", m.Type))
	}
	if s.err != nil {
		return wire.ErrorReply(m, s.err)
	}
	msgs, err := s.dec.decodeBatch(s.msgs[:0], m.Body)
	if err != nil {
		s.err = fmt.Errorf("transport: bad batch: %w", err)
		return wire.ErrorReply(m, s.err)
	}
	// The sender's flusher coalesced consecutive messages into this
	// frame; unpacking in order into the per-sender FIFO inbox keeps
	// property-7 delivery order.
	for i := range msgs {
		s.t.deliver(msgs[i])
		msgs[i] = Message{}
	}
	s.msgs = msgs[:0]
	return wire.Reply(m)
}

func (*tcpSession) Close() {}

// deliver queues an inbound message on its sender's FIFO worker.  The
// queue is keyed by sender shell ID, not connection, so order holds even
// across a peer's reconnects.
func (t *TCP) deliver(m Message) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	q, ok := t.inbox[m.From]
	if !ok {
		q = make(chan Message, 1024)
		t.inbox[m.From] = q
		go t.drain(q)
	}
	t.mu.Unlock()
	select {
	case q <- m: // backpressure: a full queue blocks this sender's frames
	case <-t.done:
	}
}

func (t *TCP) drain(q chan Message) {
	for {
		select {
		case m := <-q:
			t.recv(m)
		case <-t.done:
			return
		}
	}
}

// OnLinkEvent registers a link-health observer.  The batching sender
// reports delivery failures here (Send itself only fails on routing
// problems): a frame that could not be delivered on this raw endpoint
// means its messages are lost for good — LinkGaveUp, a logical failure in
// the Section 5 taxonomy.
func (t *TCP) OnLinkEvent(fn func(LinkEvent)) {
	t.outMu.Lock()
	t.linkFns = append(t.linkFns, fn)
	t.outMu.Unlock()
}

func (t *TCP) emitLink(ev LinkEvent) {
	t.outMu.Lock()
	fns := append([]func(LinkEvent){}, t.linkFns...)
	t.outMu.Unlock()
	for _, fn := range fns {
		fn(ev)
	}
}

// Send implements Endpoint: it resolves the destination, stamps the
// routing fields and enqueues the message on the peer's outbox; the
// per-peer flusher coalesces queued messages into wire frames.  Only
// synchronous routing problems (unknown peer, closed endpoint) are
// errors; delivery failures surface through OnLinkEvent.
func (t *TCP) Send(to string, m Message) error {
	addr, ok := t.addrs[to]
	if !ok && t.resolve != nil {
		addr, ok = t.resolve(to)
	}
	if !ok {
		return fmt.Errorf("transport: no address for shell %s", to)
	}
	m.From, m.To = t.shellID, to
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return fmt.Errorf("transport: endpoint %s closed", t.shellID)
	}
	t.mu.Unlock()
	t.outMu.Lock()
	o := t.outbox[to]
	if o == nil {
		o = &tcpOut{}
		t.outbox[to] = o
	}
	o.addr = addr
	if n := len(o.pending); n > 0 && m.Kind == relAckKind && o.pending[n-1].Kind == relAckKind {
		// Reliable's acks are cumulative, so a newer one supersedes an ack
		// still queued at the tail.  Taking its slot leaves the order of
		// everything else untouched, and the peer handles one ack per frame
		// instead of one per message it sent: without this a sender whose
		// data outruns its ack processing overflows its reliable outbox.
		o.pending[n-1] = m
		t.outMu.Unlock()
		return nil
	}
	o.pending = append(o.pending, m)
	if !o.running {
		o.running = true
		go t.flushPeer(to, o)
	}
	t.outMu.Unlock()
	return nil
}

// flushPeer drains one peer's outbox: each iteration takes everything
// queued so far as one batch and ships it as a single frame.  The
// goroutine exits when the outbox is empty (flush-on-idle); the next Send
// restarts it.
func (t *TCP) flushPeer(to string, o *tcpOut) {
	var shipped []Message
	for {
		t.outMu.Lock()
		if shipped != nil {
			o.spare = shipped[:0]
		}
		batch := o.pending
		if len(batch) == 0 {
			o.running = false
			t.outCond.Broadcast()
			t.outMu.Unlock()
			return
		}
		o.pending, o.spare = o.spare, nil
		addr := o.addr
		t.outMu.Unlock()
		t.mu.Lock()
		closed := t.closed
		t.mu.Unlock()
		if closed {
			t.dropBatch(to, batch, fmt.Errorf("transport: endpoint %s closed", t.shellID))
		} else {
			t.mBatch.Observe(float64(len(batch)))
			if err := t.sendFrame(to, addr, batch); err != nil {
				t.dropBatch(to, batch, err)
			}
		}
		clear(batch) // release what the shipped messages reference
		shipped = batch
	}
}

// sendFrame performs one batched round-trip to a peer, dialing lazily.
// The batch is encoded straight into the frame body; the in-process
// fields it needs (BindingsVal, TriggerEvent's descriptor) are read
// there, and TriggerEvent itself never crosses the network.
func (t *TCP) sendFrame(to, addr string, batch []Message) error {
	t.mu.Lock()
	p, ok := t.peers[to]
	t.mu.Unlock()
	if !ok {
		nc, err := wire.Dial(addr, nil, t.dialOpts...)
		if err != nil {
			return err
		}
		t.mu.Lock()
		if exist, dup := t.peers[to]; dup {
			t.mu.Unlock()
			nc.Close()
			p = exist
		} else {
			p = &tcpPeer{c: nc}
			t.peers[to] = p
			t.mu.Unlock()
		}
	}
	p.buf = p.enc.appendBatch(p.buf[:0], batch)
	if _, err := p.c.Do(wire.Message{Type: frameType, Body: p.buf}); err != nil {
		// Drop the broken connection, and the encoder state bound to it, so
		// the next frame redials with a fresh table on both ends.
		t.mu.Lock()
		if t.peers[to] == p {
			delete(t.peers, to)
		}
		t.mu.Unlock()
		p.c.Close()
		return err
	}
	return nil
}

// dropBatch reports a lost frame through the link-event observers.
func (t *TCP) dropBatch(to string, batch []Message, err error) {
	fires := 0
	for i := range batch {
		if batch[i].Kind == "fire" {
			fires++
		}
	}
	t.emitLink(LinkEvent{
		Kind: LinkGaveUp, Peer: to, Err: err,
		Messages: len(batch), Fires: fires,
	})
}

// Flush blocks until every queued outbound message has been either
// delivered or reported lost, implementing Flusher for scenario
// teardowns and tests that need send-completion.
func (t *TCP) Flush() error {
	t.outMu.Lock()
	defer t.outMu.Unlock()
	for {
		busy := false
		for _, o := range t.outbox {
			if o.running || len(o.pending) > 0 {
				busy = true
				break
			}
		}
		if !busy {
			return nil
		}
		t.outCond.Wait()
	}
}

// Close implements Endpoint.
func (t *TCP) Close() error {
	t.mu.Lock()
	if !t.closed {
		t.closed = true
		close(t.done)
	}
	peers := t.peers
	t.peers = map[string]*tcpPeer{}
	t.mu.Unlock()
	for _, p := range peers {
		p.c.Close()
	}
	t.outMu.Lock()
	t.outCond.Broadcast()
	t.outMu.Unlock()
	return t.srv.Close()
}

var (
	_ Endpoint = (*TCP)(nil)
	_ Flusher  = (*TCP)(nil)
)

// TCPNetwork is a Network whose members listen on ephemeral local ports
// and discover each other through a shared registry — the initialization
// step that a production deployment would do with static configuration.
type TCPNetwork struct {
	mu    sync.Mutex
	addrs map[string]string
}

// NewTCPNetwork creates an empty registry.
func NewTCPNetwork() *TCPNetwork {
	return &TCPNetwork{addrs: map[string]string{}}
}

// Join implements Network: it starts a listener for the shell and
// registers its address.
func (n *TCPNetwork) Join(shellID string, recv func(Message)) (Endpoint, error) {
	t, err := NewTCP(shellID, "127.0.0.1:0", nil, recv)
	if err != nil {
		return nil, err
	}
	t.resolve = func(id string) (string, bool) {
		n.mu.Lock()
		defer n.mu.Unlock()
		addr, ok := n.addrs[id]
		return addr, ok
	}
	n.mu.Lock()
	if _, dup := n.addrs[shellID]; dup {
		n.mu.Unlock()
		t.Close()
		return nil, fmt.Errorf("transport: shell %s already joined", shellID)
	}
	n.addrs[shellID] = t.Addr()
	n.mu.Unlock()
	return t, nil
}

var _ Network = (*TCPNetwork)(nil)
