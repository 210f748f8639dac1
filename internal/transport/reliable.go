// Reliable delivery for the shell mesh.  The paper's failure model
// (Section 5) lets a crash degrade to a *metric* failure only "if the
// database ... can remember messages that need to be sent out upon
// recovery"; a raw link that drops a fire message instead breaks the
// guarantees outright.  Reliable is a Network/Endpoint wrapper that earns
// the metric-failure classification: every (sender, receiver) link gets
// per-link sequence numbers, a bounded outbox with ack-driven retry and
// exponential backoff, receiver-side dedup, and a reorder buffer, so
// messages survive transient outages with at-least-once delivery and
// exactly-once effect — and FIFO order per link (the Appendix A.2
// property-7 assumption) holds even across retransmits.
//
// Peer health maps onto the Section 5 failure taxonomy through LinkEvents:
// FailThreshold consecutive failed delivery attempts degrade the link
// (metric failure — messages keep buffering and retries never stop),
// outbox overflow is the one way a reliable link loses messages (logical
// failure), and a degraded link whose outbox fully drains after
// reconnection raises a recovery event so shells can clear the metric
// failures it caused.

package transport

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"cmtk/internal/durable"
	"cmtk/internal/obs"
	"cmtk/internal/vclock"
)

// relAckKind is the kind of the reliability layer's acks: standalone
// messages whose Link.Seq is the receiver's next expected sequence number
// (a cumulative ack).
const relAckKind = "rel.ack"

// LinkStamp is the reliability layer's metadata on a message, carried in
// Message.Link.  On a data message Epoch identifies the sender
// incarnation (construction time, monotone across restarts, never zero):
// a higher epoch than the one on record means the sender restarted and
// began a fresh stream, so the receiver resets its link state; a lower one
// marks a stale straggler to drop.  Seq numbers the message on its link.
// Base is the lowest unacked sequence in the sender's outbox at
// transmission time.  Everything below it was acknowledged (necessarily by
// a previous incarnation of the receiver, if the receiver holds no state
// for the link) and will never be retransmitted, so a receiver may always
// fast-forward its expected sequence to the base — this is what lets a
// restarted receiver process, whose dedup state died with it, resume the
// stream mid-way instead of waiting forever for retired messages.  On an
// ack only Seq is set.
type LinkStamp struct {
	Epoch, Seq, Base uint64
}

// LinkEventKind classifies reliability-layer link events.
type LinkEventKind int

// Link event kinds.
const (
	// LinkRetry: messages were retransmitted — by a timed retry round,
	// or by an ack that moved a round's window (see retryWindow).
	LinkRetry LinkEventKind = iota
	// LinkDegraded: FailThreshold consecutive delivery attempts went
	// unacked — a metric failure; buffering continues.
	LinkDegraded
	// LinkRecovered: a degraded link's outbox fully drained again — the
	// buffered messages were replayed in order and acknowledged.
	LinkRecovered
	// LinkOverflow: the outbox hit OutboxLimit and a message was dropped —
	// a logical failure.
	LinkOverflow
	// LinkGaveUp: a raw TCP endpoint (no Reliable above it) failed to
	// deliver a frame, and its messages are lost for good — a logical
	// failure.  A reliable link never gives up; it retransmits until acked.
	LinkGaveUp
)

func (k LinkEventKind) String() string {
	switch k {
	case LinkRetry:
		return "retry"
	case LinkDegraded:
		return "degraded"
	case LinkRecovered:
		return "recovered"
	case LinkOverflow:
		return "overflow"
	default:
		return "gave-up"
	}
}

// LinkEvent reports a reliability-layer state change on one link.
type LinkEvent struct {
	Kind LinkEventKind
	Peer string // the remote shell
	Err  error  // last send error, when one was observed
	// Attempts is the count of consecutive unacknowledged delivery
	// attempts (Retry, Degraded); 0 on a Retry that an advancing ack
	// released.
	Attempts int
	// Messages counts the messages involved: retransmitted (Retry),
	// replayed and acknowledged since degradation (Recovered), or dropped
	// (Overflow, GaveUp).
	Messages int
	// Fires is how many of Messages are rule firings (kind "fire").
	Fires int
}

// ReliableOptions tunes the reliability layer.  The zero value gives
// real-clock defaults suitable for a live TCP mesh.
type ReliableOptions struct {
	// Clock drives retry timers and backoff; nil means real time.  Under a
	// vclock.Virtual the whole retry schedule is deterministic.
	Clock vclock.Clock
	// RetryInterval is the base retransmission backoff (default 200ms);
	// attempt n waits RetryInterval·2ⁿ, capped at MaxBackoff.
	RetryInterval time.Duration
	// MaxBackoff caps the exponential backoff (default 16×RetryInterval).
	MaxBackoff time.Duration
	// FailThreshold is the number of consecutive unacked delivery attempts
	// after which the link is reported degraded (default 3).
	FailThreshold int
	// OutboxLimit bounds the unacked messages buffered per link (default
	// 4096); the receive-side reorder buffer shares the bound.  A healthy
	// link at saturation also holds every message whose ack is still on
	// its way back: over loopback TCP on two cores acks trail the data by
	// 11–15 ms, up to 1 083 messages at 75K messages/s, and the default
	// is the smallest power of two that holds twice that.
	OutboxLimit int
	// Seed makes the backoff jitter deterministic (per-link streams are
	// derived from Seed and the peer name).
	Seed int64
	// Metrics is the registry the reliability layer's per-link counters
	// land in; nil means obs.Default.
	Metrics *obs.Registry
	// Durable, when set, journals every endpoint's link state (epoch,
	// outbox, acks, dedup cursors) to the store so a restarted process
	// replays its unacked messages in order — the Section 5 condition for
	// a crash to stay a metric failure.  Reliable.Join names each shell's
	// journal "rel-"+shellID; direct NewReliableEndpoint constructions
	// call EnableJournal themselves.
	Durable *durable.Store
	// CheckpointBytes is the journal size that triggers compaction into a
	// checkpoint snapshot (default 256 KiB).
	CheckpointBytes int64
	// Name is the owning shell's ID, used as the label on the reorder-hold
	// drop counter (cmtk_transport_buffer_dropped_total).
	// Reliable.Join fills it with the joining shell's ID; direct
	// NewReliableEndpoint constructions should set it themselves (empty
	// falls back to "local").
	Name string
}

func (o ReliableOptions) withDefaults() ReliableOptions {
	if o.Clock == nil {
		o.Clock = vclock.Real{}
	}
	if o.RetryInterval <= 0 {
		o.RetryInterval = 200 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 16 * o.RetryInterval
	}
	if o.FailThreshold <= 0 {
		o.FailThreshold = 3
	}
	if o.OutboxLimit <= 0 {
		o.OutboxLimit = 4096
	}
	if o.CheckpointBytes <= 0 {
		o.CheckpointBytes = 256 << 10
	}
	if o.Name == "" {
		o.Name = "local"
	}
	return o
}

// Reliable wraps a Network so every link gets sequencing, ack-driven
// retransmission, outage buffering with in-order replay, and receiver
// dedup.  Both sides of a link must be wrapped (the receiver answers with
// acks); unwrapped senders still interoperate — their messages carry no
// sequence number and pass straight through.
type Reliable struct {
	inner Network
	opts  ReliableOptions
}

// NewReliable wraps a network with reliable links.
func NewReliable(inner Network, opts ReliableOptions) *Reliable {
	return &Reliable{inner: inner, opts: opts}
}

// Join implements Network.
func (r *Reliable) Join(shellID string, recv func(Message)) (Endpoint, error) {
	opts := r.opts
	if opts.Name == "" {
		opts.Name = shellID
	}
	re := NewReliableEndpoint(recv, opts)
	if r.opts.Durable != nil {
		if _, err := re.EnableJournal(r.opts.Durable, "rel-"+shellID); err != nil {
			return nil, err
		}
	}
	inner, err := r.inner.Join(shellID, re.Deliver)
	if err != nil {
		return nil, err
	}
	re.Bind(inner)
	return re, nil
}

var _ Network = (*Reliable)(nil)

// retryWindow bounds a retransmission: a retry round resends at most
// this many messages from the ack point, and until the cumulative ack
// passes the nextSeq recorded at the round, each advancing ack resends
// the messages that newly enter [ack, ack+retryWindow).  A healed
// partition drains about a window per round trip, an isolated loss costs
// one resend, and a round never queues a copy of the whole outbox behind
// the last one (the collapse when acks trail the retry interval).
const retryWindow = 32

// relOut is the sender half of one link.
type relOut struct {
	nextSeq uint64
	// q[head:] holds the unacked messages, stamped, in ascending seq; acks
	// advance head, and push reuses the slots they free (the pairQueue
	// pattern), so a link in steady state never re-grows its outbox.
	q        []Message
	head     int
	timer    vclock.Timer
	retryFn  func() // this link's retry round, bound once
	attempts int    // consecutive unacked delivery attempts
	degraded bool
	replayed int // messages acked while degraded
	// replayedFires is how many of replayed are rule firings.
	replayedFires int
	// The open retry round: resent is the first seq it has not resent,
	// roundEnd the nextSeq when it ran; it is over once resent ≥ roundEnd.
	resent, roundEnd uint64
	lastErr          error
	rng              *rand.Rand

	// per-peer metric cells, resolved once when the link is created
	mSends    *obs.Counter
	mRetries  *obs.Counter
	mAcked    *obs.Counter
	mReplayed *obs.Counter
	mOverflow *obs.Counter
	mDepth    *obs.Gauge
}

// relIn is the receiver half of one link.
type relIn struct {
	epoch uint64             // sender incarnation last seen
	next  uint64             // next expected seq
	hold  map[uint64]Message // reorder buffer for out-of-order arrivals

	mDups *obs.Counter
	mHeld *obs.Counter
}

// relMetrics holds the reliability layer's metric families; per-peer
// cells are resolved into relOut/relIn when a link first appears.
type relMetrics struct {
	sends, retries, acked, replayed *obs.CounterVec
	dropped                         *obs.CounterVec // peer, reason
	dups, held                      *obs.CounterVec
	depth                           *obs.GaugeVec
	// holdDropped counts reorder-buffer evictions; one cell per endpoint,
	// resolved by Name.
	holdDropped *obs.Counter
}

func newRelMetrics(reg *obs.Registry, name string) relMetrics {
	if reg == nil {
		reg = obs.Default
	}
	return relMetrics{
		holdDropped: reg.Counter("cmtk_transport_buffer_dropped_total",
			"Messages dropped because a bounded transport buffer was at its cap, by buffer.",
			"shell", "buffer").With(name, "reorder-hold"),
		sends: reg.Counter("cmtk_transport_sends_total",
			"Messages sequenced and buffered for transmission, per link.", "peer"),
		retries: reg.Counter("cmtk_transport_retries_total",
			"Message retransmissions by the retry schedule, per link.", "peer"),
		acked: reg.Counter("cmtk_transport_acked_total",
			"Outbox entries retired by cumulative acks, per link.", "peer"),
		replayed: reg.Counter("cmtk_transport_replayed_total",
			"Messages replayed in order and acknowledged while a link recovered from degradation.", "peer"),
		dropped: reg.Counter("cmtk_transport_outbox_dropped_total",
			"Buffered messages lost for good, by reason (overflow).", "peer", "reason"),
		dups: reg.Counter("cmtk_transport_dups_dropped_total",
			"Receiver-side duplicates discarded by sequence-number dedup, per link.", "peer"),
		held: reg.Counter("cmtk_transport_reorder_held_total",
			"Out-of-order arrivals parked in the reorder buffer, per link.", "peer"),
		depth: reg.Gauge("cmtk_transport_outbox_depth",
			"Unacked messages currently buffered, per link.", "peer"),
	}
}

// ReliableEndpoint is one shell's reliable attachment.  It is normally
// created through Reliable.Join; deployments that build raw endpoints
// directly (transport.NewTCP) construct one with NewReliableEndpoint,
// route the raw endpoint's inbound callback to Deliver, and Bind the raw
// endpoint for sends.  Bind may be called again after the underlying
// endpoint crashes — sequencing and dedup state survive, so the outbox is
// replayed in order and retransmits are deduplicated (exactly-once
// effect across the outage).
//
// A full process restart on either side is tolerated too: data messages
// carry the sender incarnation epoch and the outbox base, so a restarted
// receiver (whose dedup state died with it) fast-forwards to the base and
// resumes the stream mid-way, and a restarted sender's higher epoch makes
// the receiver reset the link and accept the fresh numbering.  Across a
// restart delivery is at-least-once in FIFO order; only a surviving
// endpoint can deduplicate down to exactly-once.
type ReliableEndpoint struct {
	opts  ReliableOptions
	clock vclock.Clock
	recv  func(Message)
	epoch uint64 // this sender incarnation, stamped on outbound messages

	met relMetrics

	mu       sync.Mutex
	inner    Endpoint
	out      map[string]*relOut
	in       map[string]*relIn
	handlers []func(LinkEvent)
	closed   bool

	// durable journal (nil until EnableJournal); jEnc and jBuf are reused
	// to encode each record and snapshot.
	j    *durable.Log
	jEnc batchEncoder
	jBuf []byte
}

// NewReliableEndpoint creates an unbound reliable endpoint delivering
// inbound messages to recv.
func NewReliableEndpoint(recv func(Message), opts ReliableOptions) *ReliableEndpoint {
	o := opts.withDefaults()
	return &ReliableEndpoint{
		opts: o,
		// The construction instant identifies this incarnation: a process
		// that crashes and restarts gets a strictly later epoch, which is
		// how peers tell a fresh stream from a retransmit of the old one.
		// Never zero: a zero epoch marks an unstamped message.
		epoch: max(1, uint64(o.Clock.Now().UnixNano())),
		clock: o.Clock,
		recv:  recv,
		met:   newRelMetrics(o.Metrics, o.Name),
		out:   map[string]*relOut{},
		in:    map[string]*relIn{},
	}
}

// Bind installs (or replaces, after a crash) the raw endpoint used for
// transmission.
func (r *ReliableEndpoint) Bind(inner Endpoint) {
	r.mu.Lock()
	r.inner = inner
	r.mu.Unlock()
}

// OnLinkEvent registers an observer for link health events.  Handlers run
// outside the endpoint's lock and may call Send.
func (r *ReliableEndpoint) OnLinkEvent(fn func(LinkEvent)) {
	r.mu.Lock()
	r.handlers = append(r.handlers, fn)
	r.mu.Unlock()
}

// Pending reports the number of unacked messages buffered for a peer.
func (r *ReliableEndpoint) Pending(peer string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if o := r.out[peer]; o != nil {
		return len(o.unacked())
	}
	return 0
}

// unacked returns the outbox's live messages.
func (o *relOut) unacked() []Message { return o.q[o.head:] }

// push appends a stamped message to the outbox.  When the slice is full
// and acks have freed at least half of it, the live tail moves to the
// front instead of the slice growing.
func (o *relOut) push(m Message) {
	if len(o.q) == cap(o.q) && o.head > 0 && o.head >= len(o.q)/2 {
		n := copy(o.q, o.q[o.head:])
		clear(o.q[n:])
		o.q, o.head = o.q[:n], 0
	}
	o.q = append(o.q, m)
}

// retire drops the n oldest unacked messages.
func (o *relOut) retire(n int) {
	clear(o.q[o.head : o.head+n]) // release references held by the slots
	o.head += n
	if o.head == len(o.q) {
		o.q, o.head = o.q[:0], 0
	}
}

func (r *ReliableEndpoint) emit(evs []LinkEvent) {
	if len(evs) == 0 {
		return
	}
	r.mu.Lock()
	fns := append([]func(LinkEvent){}, r.handlers...)
	r.mu.Unlock()
	for _, ev := range evs {
		for _, fn := range fns {
			fn(ev)
		}
	}
}

func (r *ReliableEndpoint) outLink(to string) *relOut {
	o := r.out[to]
	if o == nil {
		h := fnv.New64a()
		h.Write([]byte(to))
		o = &relOut{
			rng:       rand.New(rand.NewSource(r.opts.Seed ^ int64(h.Sum64()))),
			mSends:    r.met.sends.With(to),
			mRetries:  r.met.retries.With(to),
			mAcked:    r.met.acked.With(to),
			mReplayed: r.met.replayed.With(to),
			mOverflow: r.met.dropped.With(to, "overflow"),
			mDepth:    r.met.depth.With(to),
		}
		o.retryFn = func() { r.retry(to) }
		r.out[to] = o
	}
	return o
}

// backoffLocked computes the delay before the next retransmission round:
// exponential in the consecutive-failure count, capped, plus up to 10%
// deterministic jitter so fleets of links do not retry in lockstep.
func (o *relOut) backoffLocked(opts ReliableOptions) time.Duration {
	d := opts.RetryInterval
	for i := 0; i < o.attempts && d < opts.MaxBackoff; i++ {
		d *= 2
	}
	if d > opts.MaxBackoff {
		d = opts.MaxBackoff
	}
	return d + time.Duration(o.rng.Int63n(int64(d)/10+1))
}

// scheduleLocked arms the retry timer for a link if none is pending.
func (r *ReliableEndpoint) scheduleLocked(o *relOut) {
	if o.timer != nil {
		return
	}
	o.timer = r.clock.AfterFunc(o.backoffLocked(r.opts), o.retryFn)
}

func countFires(q []Message) int {
	n := 0
	for i := range q {
		if q[i].Kind == "fire" {
			n++
		}
	}
	return n
}

// Send implements Endpoint.  The message is sequenced, buffered until
// acknowledged, and transmitted; loss is repaired by the retry schedule,
// so Send only errors when the endpoint itself is closed or unbound.
// Overflow of the bounded outbox is surfaced as a LinkOverflow event (a
// logical failure), not an error, so callers do not double-report.
func (r *ReliableEndpoint) Send(to string, m Message) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return fmt.Errorf("transport: reliable endpoint closed")
	}
	inner := r.inner
	if inner == nil {
		r.mu.Unlock()
		return fmt.Errorf("transport: reliable endpoint not bound")
	}
	o := r.outLink(to)
	if len(o.unacked()) >= r.opts.OutboxLimit {
		ev := LinkEvent{
			Kind: LinkOverflow, Peer: to, Err: o.lastErr,
			Attempts: o.attempts, Messages: 1,
		}
		if m.Kind == "fire" {
			ev.Fires = 1
		}
		o.mOverflow.Inc()
		r.mu.Unlock()
		r.emit([]LinkEvent{ev})
		return nil
	}
	seq := o.nextSeq
	o.nextSeq++
	m.Link = LinkStamp{Epoch: r.epoch, Seq: seq}
	journaled := false
	if r.j != nil {
		if m.Trigger.Desc == "" && m.TriggerEvent != nil {
			// Render the descriptor once, for the journal and for a codec
			// on the inner transport alike.
			m.Trigger.Desc = m.TriggerEvent.Desc.String()
		}
		journaled = r.journalLocked(jSend, appendSendRec(r.recordLocked(), &r.jEnc, to, seq, m))
	}
	// The outbox and the receiver share BindingsVal: a sent map is
	// read-only, so checkpoints may encode it while the receiver runs.
	o.push(m)
	o.mSends.Inc()
	o.mDepth.Set(int64(len(o.unacked())))
	if journaled {
		// After the push: the snapshot must hold m, whose record it
		// truncates.
		r.maybeCheckpointLocked()
	}
	m.Link.Base = o.q[o.head].Link.Seq
	r.scheduleLocked(o)
	r.mu.Unlock()
	if err := inner.Send(to, m); err != nil {
		r.mu.Lock()
		o.lastErr = err
		r.mu.Unlock()
	}
	return nil
}

// retry runs one retransmission round for a link.
func (r *ReliableEndpoint) retry(to string) {
	r.mu.Lock()
	o := r.out[to]
	if o == nil || r.closed {
		r.mu.Unlock()
		return
	}
	o.timer = nil
	q := o.unacked()
	if len(q) == 0 {
		o.attempts = 0
		r.mu.Unlock()
		return
	}
	o.attempts++
	var evs []LinkEvent
	if !o.degraded && o.attempts >= r.opts.FailThreshold {
		o.degraded = true
		o.replayed, o.replayedFires = 0, 0
		evs = append(evs, LinkEvent{
			Kind: LinkDegraded, Peer: to, Err: o.lastErr, Attempts: o.attempts,
			Messages: len(q), Fires: countFires(q),
		})
	}
	o.resent, o.roundEnd = q[0].Link.Seq, o.nextSeq
	batch := o.windowLocked()
	evs = append(evs, LinkEvent{
		Kind: LinkRetry, Peer: to, Err: o.lastErr, Attempts: o.attempts,
		Messages: len(batch), Fires: countFires(batch),
	})
	r.scheduleLocked(o)
	inner := r.inner
	r.mu.Unlock()
	r.resend(inner, to, o, batch)
	r.emit(evs)
}

// windowLocked copies the open round's messages that are in the window
// [ack, ack+retryWindow) and not yet resent, marks them resent, and
// counts them as retries.  Each copy re-stamps the current outbox base,
// so a receiver that lost its link state (a process restart) can adopt
// the sender's position instead of waiting for retired messages.
func (o *relOut) windowLocked() []Message {
	q := o.unacked()
	q = q[:min(len(q), retryWindow)]
	var batch []Message
	for _, m := range q {
		if m.Link.Seq < o.resent || m.Link.Seq >= o.roundEnd {
			continue
		}
		m.Link.Base = q[0].Link.Seq
		batch = append(batch, m)
	}
	if len(batch) > 0 {
		o.resent = batch[len(batch)-1].Link.Seq + 1
		o.mRetries.Add(uint64(len(batch)))
	}
	return batch
}

// resend transmits a retransmission batch outside the endpoint's lock.
func (r *ReliableEndpoint) resend(inner Endpoint, to string, o *relOut, batch []Message) {
	if inner == nil {
		return
	}
	for _, m := range batch {
		if err := inner.Send(to, m); err != nil {
			r.mu.Lock()
			o.lastErr = err
			r.mu.Unlock()
			return // link is down; the next round retries from the ack point
		}
	}
}

// Deliver is the inbound path: raw endpoints route their receive callback
// here.  Data messages are deduplicated and released in sequence order;
// acks retire outbox entries.  Transports invoke receive callbacks
// serially per sender (the Network contract), which Deliver relies on to
// keep per-link delivery FIFO.
func (r *ReliableEndpoint) Deliver(m Message) {
	if m.Kind == relAckKind {
		r.handleAck(m)
		return
	}
	st := m.Link
	if st.Epoch == 0 {
		// A peer without the reliability layer: pass through unchanged.
		r.recv(m)
		return
	}
	m.Link = LinkStamp{} // link metadata; the receiver sees the message as sent
	seq, epoch, base := st.Seq, st.Epoch, st.Base
	from := m.From
	r.mu.Lock()
	fresh := r.in[from] == nil
	in := r.inLink(from)
	if fresh {
		in.epoch = epoch
	}
	prevEpoch, prevNext := in.epoch, in.next
	if epoch < in.epoch {
		// A straggler from a sender incarnation that has since restarted.
		r.mu.Unlock()
		return
	}
	if epoch > in.epoch {
		// The sender restarted: a fresh stream with fresh numbering.
		in.epoch = epoch
		in.next = 0
		in.hold = map[uint64]Message{}
	}
	if base > in.next {
		// Everything below the sender's outbox base was acked (to a
		// previous incarnation of this receiver) and will never be resent:
		// fast-forward instead of waiting forever.
		in.next = base
		for s := range in.hold {
			if s < base {
				delete(in.hold, s)
			}
		}
	}
	// One slot on the stack covers the common case, an in-order arrival
	// with nothing held.
	var first [1]Message
	deliver := first[:0]
	for {
		held, ok := in.hold[in.next]
		if !ok {
			break
		}
		delete(in.hold, in.next)
		deliver = append(deliver, held)
		in.next++
	}
	switch {
	case seq < in.next:
		// Duplicate of an already-delivered message (retransmit after a
		// lost ack, or a duplicating link): drop, but re-ack below so the
		// sender can retire it.
		in.mDups.Inc()
	case seq == in.next:
		deliver = append(deliver, m)
		in.next++
		for {
			held, ok := in.hold[in.next]
			if !ok {
				break
			}
			delete(in.hold, in.next)
			deliver = append(deliver, held)
			in.next++
		}
	default:
		// A gap: buffer for in-order release; the sender's retransmit
		// from the ack point fills the hole even if this copy is evicted.
		if len(in.hold) < r.opts.OutboxLimit {
			in.hold[seq] = m
			in.mHeld.Inc()
		} else {
			// Eviction at the cap is deterministic (the arriving copy is
			// discarded, held ones stay) and counted — bounded RSS must not
			// mean silent loss in the books, even though a retransmit will
			// resend this copy.
			r.met.holdDropped.Inc()
		}
	}
	if r.j != nil && (in.epoch != prevEpoch || in.next != prevNext || fresh) {
		// The dedup cursor moved (or the link is new): journal it so a
		// restarted receiver keeps discarding retransmits it already
		// processed instead of re-executing them.
		if r.journalLocked(jIn, appendInRec(r.recordLocked(), from, in.epoch, in.next)) {
			r.maybeCheckpointLocked()
		}
	}
	ack := in.next
	inner := r.inner
	r.mu.Unlock()
	for i := range deliver {
		r.recv(deliver[i])
	}
	if inner != nil {
		inner.Send(from, Message{Kind: relAckKind, Link: LinkStamp{Seq: ack}})
	}
}

// handleAck retires outbox entries below the cumulative ack point.
func (r *ReliableEndpoint) handleAck(m Message) {
	ack := m.Link.Seq
	peer := m.From
	r.mu.Lock()
	o := r.out[peer]
	if o == nil || ack > o.nextSeq {
		// No outbox, or an ack beyond anything this incarnation ever sent —
		// a receiver still acking a previous incarnation's stream.  Ignore;
		// the receiver resets on the next data message's higher epoch.
		r.mu.Unlock()
		return
	}
	q := o.unacked()
	n := 0
	for n < len(q) && q[n].Link.Seq < ack {
		n++
	}
	fires := countFires(q[:n])
	var evs []LinkEvent
	var batch []Message
	if n > 0 {
		o.retire(n)
		o.mAcked.Add(uint64(n))
		o.mDepth.Set(int64(len(o.unacked())))
		if r.j != nil && r.journalLocked(jAck, appendAckRec(r.recordLocked(), peer, ack)) {
			r.maybeCheckpointLocked()
		}
		o.attempts = 0
		o.lastErr = nil
		if o.degraded {
			o.replayed += n
			o.replayedFires += fires
			o.mReplayed.Add(uint64(n))
			if len(o.unacked()) == 0 {
				// The outage's backlog has fully replayed, in order: the
				// link has recovered.
				o.degraded = false
				evs = append(evs, LinkEvent{
					Kind: LinkRecovered, Peer: peer,
					Messages: o.replayed, Fires: o.replayedFires,
				})
				o.replayed, o.replayedFires = 0, 0
			}
		}
		if o.resent < o.roundEnd {
			// The ack moved an open round's window: resend what entered it.
			if batch = o.windowLocked(); len(batch) > 0 {
				evs = append(evs, LinkEvent{
					Kind: LinkRetry, Peer: peer, Attempts: o.attempts,
					Messages: len(batch), Fires: countFires(batch),
				})
			}
		}
		if len(o.unacked()) > 0 && o.timer != nil {
			// The link is alive again; collapse any long backoff.
			o.timer.Stop()
			o.timer = nil
			r.scheduleLocked(o)
		}
	}
	inner := r.inner
	r.mu.Unlock()
	r.resend(inner, peer, o, batch)
	r.emit(evs)
}

// Close implements Endpoint.
func (r *ReliableEndpoint) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	for _, o := range r.out {
		if o.timer != nil {
			o.timer.Stop()
			o.timer = nil
		}
	}
	// A clean detach checkpoints the journal so the next incarnation
	// recovers from a snapshot instead of replaying the whole log; after a
	// crash hook or a failed write the log refuses it, and Store.Close
	// reports a kept failure.
	r.checkpointLocked()
	inner := r.inner
	r.mu.Unlock()
	if inner != nil {
		return inner.Close()
	}
	return nil
}

var _ Endpoint = (*ReliableEndpoint)(nil)
