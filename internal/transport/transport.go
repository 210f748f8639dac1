package transport

import (
	"fmt"
	"sync"
	"time"

	"cmtk/internal/event"
	"cmtk/internal/vclock"
)

// Message is one inter-shell message.  Over TCP and in the reliable
// journal it is encoded by the batch codec (codec.go); its JSON tags and
// WireReady serve JSON renderings outside the transport.
type Message struct {
	Kind string // "fire" or "failure"
	From string // sending shell ID
	To   string // receiving shell ID

	// Epoch is the sender's fleet route-table epoch at send time (0 in
	// static deployments).  A receiver holding a newer table treats the
	// message as the in-flight tail of a rebalance: still valid, but
	// forwarded to the current owner if ownership moved (package fleet).
	Epoch uint64 `json:",omitempty"`

	// fire: execute the RHS of Rule under Bindings; Trigger identifies the
	// LHS event.
	Rule     string
	Bindings map[string]string // parameter -> literal encoding
	Trigger  EventRef

	// BindingsVal is the fast path for Bindings: senders hand over the
	// bound values directly, skipping literal rendering and parsing.  The
	// map is read-only once sent: on an in-memory network the map itself
	// moves, and Reliable's outbox keeps the same map for retransmission
	// and checkpoints, so neither the sender nor a receiver may write into
	// it.  The codec (codec.go), over TCP and in the reliable journal,
	// carries the values as tagged binary and the receiver, or a crash
	// replay, gets BindingsVal back.  When both are set, Bindings wins.
	BindingsVal event.Bindings `json:"-"`

	// failure: a site's interface failed.
	FailSite string
	FailKind string // "metric" or "logical"
	FailOp   string
	FailErr  string

	// Payload carries fields for custom message kinds (programmatic
	// strategy components such as the Demarcation Protocol).
	Payload map[string]string

	// TriggerEvent carries the full trigger event in-process so traces can
	// chain provenance; it does not cross the network (TCP receivers
	// reconstruct a stub from Trigger).
	TriggerEvent *event.Event `json:"-"`

	// Link is the reliability layer's stamp (reliable.go); it is zero on
	// messages that did not pass through a ReliableEndpoint.  The codec
	// carries it over TCP; the journal does not store it, and replay
	// rebuilds it from the journaled sequence number and epoch.
	Link LinkStamp `json:"-"`
}

// WireReady materializes the literal form of the in-process-only fields:
// BindingsVal is encoded into Bindings and the trigger descriptor is
// rendered from TriggerEvent when the sender left it blank, so the
// message survives a JSON encoding.  No transport calls it: the codec
// encodes both fields itself, and in-memory networks skip both.
func (m *Message) WireReady() {
	if m.BindingsVal != nil {
		if m.Bindings == nil {
			m.Bindings = make(map[string]string, len(m.BindingsVal))
			for k, v := range m.BindingsVal {
				m.Bindings[k] = v.String()
			}
		}
		m.BindingsVal = nil
	}
	if m.TriggerEvent != nil && m.Trigger.Desc == "" {
		m.Trigger.Desc = m.TriggerEvent.Desc.String()
	}
}

// EventRef is the serializable identity of an event.
type EventRef struct {
	Site string
	Seq  uint64
	Time time.Time
	Desc string // ground descriptor in rule syntax, e.g. N(salary1("e7"), 100)
}

// Endpoint is one shell's connection to the mesh.
type Endpoint interface {
	// Send delivers m to the named shell.  Delivery is asynchronous and
	// FIFO per destination.
	Send(to string, m Message) error
	// Close detaches the endpoint.
	Close() error
}

// Network joins shells to a mesh.
type Network interface {
	// Join registers a shell; recv is invoked for each delivered message,
	// serially per endpoint, in FIFO-per-sender order.
	Join(shellID string, recv func(Message)) (Endpoint, error)
}

// Bus is the in-process Network.  Latency models the network: each
// message is delivered a fixed latency after it is sent, on the bus clock,
// so due times are monotone per link and links stay FIFO.
type Bus struct {
	clock   vclock.Clock
	latency time.Duration
	mu      sync.Mutex
	members map[string]*busEndpoint
	// queues holds in-flight messages per (from,to) pair; a fired delivery
	// timer hands over the head, one goroutine at a time, so arrival order
	// equals send order even when equal-deadline timers race on the real
	// clock.
	queues map[[2]string]*pairQueue
}

// pairQueue buffers one link's in-flight messages.  head indexes the next
// undelivered message so pops reuse the slice's capacity instead of
// reslicing it away; deliver is bound once per link so scheduling a
// delivery does not allocate a fresh closure per send.
//
// On the real clock every delivery timer fires on its own goroutine.
// Popping in order is not enough for FIFO — two goroutines can pop in
// order and reach the receiver out of order — so the link has a single
// drainer: a fired timer adds one to due, and whoever finds draining
// false hands over due messages in pop order while the others return.
// mu is never held across the receiver call.
type pairQueue struct {
	mu       sync.Mutex
	msgs     []Message
	head     int
	due      int
	draining bool
	deliver  func()
}

// popLocked removes and returns the oldest queued message; the caller
// holds q.mu.
func (q *pairQueue) popLocked() (Message, bool) {
	if q.head >= len(q.msgs) {
		return Message{}, false
	}
	m := q.msgs[q.head]
	q.msgs[q.head] = Message{} // release references held by the slot
	q.head++
	if q.head == len(q.msgs) {
		q.msgs, q.head = q.msgs[:0], 0
	}
	return m, true
}

// drain is the body of a fired delivery timer on bus b.
func (q *pairQueue) drain(b *Bus) {
	q.mu.Lock()
	q.due++
	if q.draining {
		q.mu.Unlock()
		return
	}
	q.draining = true
	for q.due > 0 {
		q.due--
		m, ok := q.popLocked()
		q.mu.Unlock()
		if ok {
			b.handOver(m)
		}
		q.mu.Lock()
	}
	q.draining = false
	q.mu.Unlock()
}

// NewBus creates a bus on the given clock with the given link latency.
func NewBus(clock vclock.Clock, latency time.Duration) *Bus {
	if clock == nil {
		clock = vclock.Real{}
	}
	return &Bus{
		clock:   clock,
		latency: latency,
		members: map[string]*busEndpoint{},
		queues:  map[[2]string]*pairQueue{},
	}
}

// Join implements Network.
func (b *Bus) Join(shellID string, recv func(Message)) (Endpoint, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, dup := b.members[shellID]; dup {
		return nil, fmt.Errorf("transport: shell %s already joined", shellID)
	}
	ep := &busEndpoint{bus: b, id: shellID, recv: recv}
	b.members[shellID] = ep
	return ep, nil
}

type busEndpoint struct {
	bus  *Bus
	id   string
	recv func(Message)
	mu   sync.Mutex
	dead bool
}

// Send implements Endpoint.
func (e *busEndpoint) Send(to string, m Message) error {
	e.mu.Lock()
	if e.dead {
		e.mu.Unlock()
		return fmt.Errorf("transport: endpoint %s closed", e.id)
	}
	e.mu.Unlock()
	b := e.bus
	b.mu.Lock()
	if _, ok := b.members[to]; !ok {
		b.mu.Unlock()
		return fmt.Errorf("transport: no shell %s on bus", to)
	}
	m.From, m.To = e.id, to
	key := [2]string{e.id, to}
	q := b.queues[key]
	if q == nil {
		q = &pairQueue{}
		q.deliver = func() { q.drain(b) }
		b.queues[key] = q
	}
	b.mu.Unlock()
	q.mu.Lock()
	q.msgs = append(q.msgs, m)
	q.mu.Unlock()
	b.clock.AfterFunc(b.latency, q.deliver)
	return nil
}

// handOver passes a due message to its destination, resolved at delivery
// time: the endpoint may have closed (and a namesake rejoined) since the
// send.
func (b *Bus) handOver(m Message) {
	b.mu.Lock()
	dst := b.members[m.To]
	b.mu.Unlock()
	if dst == nil {
		return
	}
	dst.mu.Lock()
	dead := dst.dead
	dst.mu.Unlock()
	if !dead {
		dst.recv(m)
	}
}

// Close implements Endpoint.
func (e *busEndpoint) Close() error {
	e.mu.Lock()
	e.dead = true
	e.mu.Unlock()
	e.bus.mu.Lock()
	delete(e.bus.members, e.id)
	e.bus.mu.Unlock()
	return nil
}

// Scrambled wraps a Network and swaps every consecutive pair of messages
// on each (sender, receiver) link.  It deliberately violates the FIFO
// delivery assumption of Appendix A.2 property 7 — the ablation that
// shows why the paper's guarantee proofs "discovered ... a requirement
// for in-order message processing" (Section 4.2.3).
type Scrambled struct {
	inner Network
}

// NewScrambled wraps a network with pair-swapping links.
func NewScrambled(inner Network) *Scrambled { return &Scrambled{inner: inner} }

// Join implements Network.
func (s *Scrambled) Join(shellID string, recv func(Message)) (Endpoint, error) {
	ep, err := s.inner.Join(shellID, recv)
	if err != nil {
		return nil, err
	}
	return &scrambledEndpoint{inner: ep, held: map[string]*Message{}}, nil
}

type scrambledEndpoint struct {
	inner Endpoint
	mu    sync.Mutex
	held  map[string]*Message
}

// Send implements Endpoint: the first message of each pair is held back
// and sent after the second, inverting their order on the wire.
func (e *scrambledEndpoint) Send(to string, m Message) error {
	e.mu.Lock()
	first := e.held[to]
	if first == nil {
		mc := m
		e.held[to] = &mc
		e.mu.Unlock()
		return nil
	}
	delete(e.held, to)
	e.mu.Unlock()
	if err := e.inner.Send(to, m); err != nil {
		return err
	}
	return e.inner.Send(to, *first)
}

// Flush releases any held unpaired messages (call at the end of a
// scenario so odd final messages still arrive).
func (e *scrambledEndpoint) Flush() error {
	e.mu.Lock()
	held := e.held
	e.held = map[string]*Message{}
	e.mu.Unlock()
	for to, m := range held {
		if err := e.inner.Send(to, *m); err != nil {
			return err
		}
	}
	return nil
}

// Close implements Endpoint.
func (e *scrambledEndpoint) Close() error {
	e.Flush()
	return e.inner.Close()
}

// Flusher is implemented by endpoints that buffer messages.
//
//cmlint:allow deadsurface(cmperf's endpoint wrappers type-assert and forward it; scrambledEndpoint implements it and flushes on Close)
type Flusher interface{ Flush() error }

var (
	_ Network  = (*Scrambled)(nil)
	_ Endpoint = (*scrambledEndpoint)(nil)
	_ Flusher  = (*scrambledEndpoint)(nil)
)
