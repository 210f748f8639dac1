package shell

import (
	"fmt"
	"maps"
	"sync"
	"time"

	"cmtk/internal/cmi"
	"cmtk/internal/data"
	"cmtk/internal/durable"
	"cmtk/internal/event"
	"cmtk/internal/obs"
	"cmtk/internal/rule"
	"cmtk/internal/trace"
	"cmtk/internal/transport"
	"cmtk/internal/vclock"
)

// Options configures a shell.
type Options struct {
	// Clock drives timers and timestamps; nil means real time.
	Clock vclock.Clock
	// Trace records events; nil allocates a private trace.  Simulated
	// deployments share one trace across shells so the checker sees the
	// whole execution.
	Trace *trace.Trace
	// FireDelay is the engine's processing delay between matching a rule's
	// LHS and dispatching its RHS, modelling CM load.  It must be well
	// under the smallest rule δ for metric guarantees to hold.
	FireDelay time.Duration
	// Metrics is the registry the shell's counters land in; nil means
	// obs.Default, so a deployment's shells share one scrape surface.
	Metrics *obs.Registry
	// Router makes the shell a fleet member: rule ownership, fire targets
	// and external-trigger routing resolve through the installed route
	// table (see shard.go and package fleet) instead of the static
	// site→shell map, with bases outside the table falling back to static
	// routing.  Nil keeps the classic Fig. 1 static assignment.
	Router ShardRouter
}

// Shell is one CM-Shell process.
type Shell struct {
	id    string
	spec  *rule.Spec
	clock vclock.Clock
	tr    *trace.Trace
	opts  Options

	// plan places the spec's rules.  New builds it, because a peer's fire
	// can arrive between Attach and Start; planErr is the spec's error,
	// which Start returns, and a nil plan finds no rule.
	plan    *rule.Plan
	planErr error

	// run-to-completion event queue
	qmu        sync.Mutex
	queue      taskRing
	processing bool
	// qcond wakes Drain callers when the queue goes idle.
	qcond *sync.Cond

	// bases with an active notification subscription; only their writes
	// need echo suppression.
	subscribed map[string]bool

	// configuration (fixed after Start)
	sites     map[string]cmi.Interface // hosted site -> translator (nil for private-only sites)
	routing   map[string]string        // site -> shell ID
	ep        transport.Endpoint
	owned     []*rule.Placed
	periodics []vclock.Timer
	cancels   []func()
	started   bool

	// dispatchIdx maps a plan's dispatch key (LHS op, LHS item base) to
	// the owned rules that can possibly match an event with that
	// descriptor shape — the index is exact, so handleEvent touches only
	// candidate rules instead of scanning all of s.owned.  Periodic rules
	// live under {OpP, ""}.  Built by Start, with the owned rules; before
	// that both are empty.
	dispatchIdx map[rule.Key][]*rule.Placed

	// Scratch state the match loop, the RHS and the expression evaluator
	// reuse; the post queue serializes all use of it.  scratchB is the
	// bindings every match attempt writes into; execB is the bindings of
	// the firing executeSteps is running.  They are distinct because
	// executeSteps matches the events it emits while execB is in use.  one
	// is record's single-event slice, so committing through AppendUnit
	// does not allocate.
	scratchB event.Bindings
	execB    event.Bindings
	evalEnv  shellEnv
	one      [1]*event.Event

	// private CM data (Section 3.2: "Each CM-Shell can have private data");
	// dur journals every write when durable state is enabled (both
	// guarded by privMu)
	privMu  sync.RWMutex
	private data.Interpretation
	dur     *durable.Log

	// CM-initiated writes pending confirmation, to tell W from Ws when the
	// underlying source's trigger fires for our own write; keyed by
	// appendPendKey.
	pendMu  sync.Mutex
	pending map[string]int

	// implicit interface rules generated for provenance, keyed by
	// (kind, site, base) so cache hits on the write path do not build the
	// "if:kind:site:base" id string every time
	implMu   sync.Mutex
	implicit map[implID]rule.Rule

	// failures observed locally or propagated from peers
	failMu     sync.Mutex
	failures   []cmi.Failure
	failureFns []func(cmi.Failure)
	custom     map[string]func(transport.Message)

	// fleet peers declared by AddPeer: members reachable for failure
	// propagation that host no site in the static routing map
	peerMu sync.RWMutex
	peers  map[string]bool

	// observability handles, resolved once at construction (atomic on the
	// hot path; see package obs)
	m shellMetrics

	// bounded-memory retention (guarantee-aware trace compaction); set by
	// EnableRetention, nil otherwise
	retainMu sync.Mutex
	retain   *retention
}

// shellMetrics bundles the shell's pre-resolved obs handles plus the
// counter values at construction, so Delivery() reports per-instance
// deltas even though series are shared by shell ID across instances.
type shellMetrics struct {
	events       *obs.Counter
	matches      *obs.Counter
	localFires   *obs.Counter
	remoteFires  *obs.Counter
	recvFires    *obs.Counter
	droppedFires *obs.Counter
	retriedFires *obs.Counter
	replayed     *obs.Counter
	failMetric   *obs.Counter
	failLogical  *obs.Counter
	latency      *obs.Histogram
	qdepth       *obs.Gauge
	base         DeliveryCounts
}

// DeliveryCounts is a point-in-time view of one shell instance's
// remote-fire delivery counters — the programmatic face of the
// cmtk_shell_* registry metrics (and the replacement for the removed
// ad-hoc Stats plumbing).
type DeliveryCounts struct {
	// RemoteFires is the number of rule firings handed to the transport
	// for a remote shell (cmtk_shell_fires_total{scope="remote"}).
	RemoteFires uint64
	// DroppedFires counts remote firings lost for good: raw-endpoint send
	// errors or reliable-link outbox overflow
	// (cmtk_shell_remote_fires_dropped_total).
	DroppedFires uint64
	// RetriedFires counts firing retransmissions by the reliability layer
	// (cmtk_shell_remote_fires_retried_total; the same firing may be
	// retried more than once).
	RetriedFires uint64
	// ReplayedSends is the number of buffered messages replayed in order
	// and acknowledged after a degraded link recovered
	// (cmtk_shell_replayed_sends_total).
	ReplayedSends uint64
}

// newShellMetrics resolves the per-shell obs handles.
func newShellMetrics(reg *obs.Registry, id string) shellMetrics {
	if reg == nil {
		reg = obs.Default
	}
	fires := reg.Counter("cmtk_shell_fires_total",
		"Rule firings by scope: dispatched locally, sent to a remote shell, or received from one.",
		"shell", "scope")
	m := shellMetrics{
		events: reg.Counter("cmtk_shell_events_total",
			"Events recorded to the shell's trace.", "shell").With(id),
		matches: reg.Counter("cmtk_shell_rule_matches_total",
			"LHS matches whose condition passed (each becomes a firing).", "shell").With(id),
		localFires:  fires.With(id, "local"),
		remoteFires: fires.With(id, "remote"),
		recvFires:   fires.With(id, "received"),
		droppedFires: reg.Counter("cmtk_shell_remote_fires_dropped_total",
			"Remote firings lost for good: raw send errors, outbox overflow.", "shell").With(id),
		retriedFires: reg.Counter("cmtk_shell_remote_fires_retried_total",
			"Firing retransmissions by the reliability layer.", "shell").With(id),
		replayed: reg.Counter("cmtk_shell_replayed_sends_total",
			"Buffered messages replayed in order and acknowledged after a degraded link recovered.", "shell").With(id),
		failMetric: reg.Counter("cmtk_shell_failures_total",
			"Interface failures observed (local and propagated), by Section 5 kind.", "shell", "kind").With(id, "metric"),
		latency: reg.Histogram("cmtk_shell_fire_latency_seconds",
			"Delay from trigger event to RHS execution, on the shell clock.", nil, "shell").With(id),
		qdepth: reg.Gauge("cmtk_shell_queue_depth",
			"Current depth of the shell's run-to-completion post queue.", "shell").With(id),
	}
	m.failLogical = reg.Counter("cmtk_shell_failures_total", "", "shell", "kind").With(id, "logical")
	m.base = DeliveryCounts{
		RemoteFires:   m.remoteFires.Value(),
		DroppedFires:  m.droppedFires.Value(),
		RetriedFires:  m.retriedFires.Value(),
		ReplayedSends: m.replayed.Value(),
	}
	return m
}

// New creates a shell for the given strategy specification.
func New(id string, spec *rule.Spec, opts Options) *Shell {
	clock := opts.Clock
	if clock == nil {
		clock = vclock.Real{}
	}
	tr := opts.Trace
	if tr == nil {
		tr = trace.New(nil)
	}
	s := &Shell{
		id:         id,
		spec:       spec,
		clock:      clock,
		tr:         tr,
		opts:       opts,
		scratchB:   event.Bindings{},
		execB:      event.Bindings{},
		sites:      map[string]cmi.Interface{},
		routing:    map[string]string{},
		private:    data.NewInterpretation(),
		pending:    map[string]int{},
		implicit:   map[implID]rule.Rule{},
		subscribed: map[string]bool{},
		m:          newShellMetrics(opts.Metrics, id),
	}
	s.plan, s.planErr = spec.Plan()
	s.qcond = sync.NewCond(&s.qmu)
	s.evalEnv.s = s
	return s
}

// ID returns the shell's identity.
func (s *Shell) ID() string { return s.id }

// Trace returns the shell's event trace.
func (s *Shell) Trace() *trace.Trace { return s.tr }

// AddSite declares that this shell hosts a site.  iface may be nil for a
// site holding only CM-private items.  The shell also registers itself as
// that site's route.
func (s *Shell) AddSite(site string, iface cmi.Interface) {
	s.sites[site] = iface
	s.routing[site] = s.id
	if iface != nil {
		iface.OnFailure(func(f cmi.Failure) { s.reportFailure(f, true) })
	}
}

// Route declares that a remote shell hosts a site.
func (s *Shell) Route(site, shellID string) { s.routing[site] = shellID }

// Attach joins the shell to an inter-shell network.
func (s *Shell) Attach(n transport.Network) error {
	ep, err := n.Join(s.id, s.receive)
	if err != nil {
		return err
	}
	s.ep = ep
	if lw, ok := ep.(linkWatcher); ok {
		lw.OnLinkEvent(s.onLinkEvent)
	}
	return nil
}

// linkWatcher is satisfied by transport.ReliableEndpoint; when the
// attached endpoint reports link health, the shell folds those events
// into the Section 5 failure taxonomy.
type linkWatcher interface {
	OnLinkEvent(func(transport.LinkEvent))
}

// sitesRoutedTo lists the sites this shell reaches through a peer shell.
// Routing is fixed after Start, like the other configuration maps.
func (s *Shell) sitesRoutedTo(peer string) []string {
	var sites []string
	for site, shellID := range s.routing {
		if shellID == peer {
			sites = append(sites, site)
		}
	}
	return sites
}

// linkErrSuffix renders a link event's error for a failure message; the
// batching TCP path reports delivery failures asynchronously, so the
// event may carry no error at all.
func linkErrSuffix(err error) string {
	if err == nil {
		return ""
	}
	return ": " + err.Error()
}

// onLinkEvent maps link events onto the failure taxonomy: a degraded
// link is a metric failure (the outbox "can remember messages that need
// to be sent out upon recovery", Section 5) for every site reached
// through the peer; dropped messages (reliable outbox overflow, a failed
// frame on a raw TCP link) are logical failures; recovery clears the
// link's metric failures here and tells peers to do the same.
func (s *Shell) onLinkEvent(ev transport.LinkEvent) {
	switch ev.Kind {
	case transport.LinkRetry:
		s.m.retriedFires.Add(uint64(ev.Fires))
	case transport.LinkDegraded:
		for _, site := range s.sitesRoutedTo(ev.Peer) {
			s.reportFailure(cmi.Failure{
				Kind: cmi.FailMetric, Site: site, When: s.clock.Now(),
				Op: "link", Err: fmt.Errorf("link to %s degraded after %d attempts (%d buffered)%s",
					ev.Peer, ev.Attempts, ev.Messages, linkErrSuffix(ev.Err)),
			}, true)
		}
	case transport.LinkOverflow, transport.LinkGaveUp:
		s.m.droppedFires.Add(uint64(ev.Fires))
		for _, site := range s.sitesRoutedTo(ev.Peer) {
			s.reportFailure(cmi.Failure{
				Kind: cmi.FailLogical, Site: site, When: s.clock.Now(),
				Op: "link", Err: fmt.Errorf("link to %s lost %d message(s) (%s)%s",
					ev.Peer, ev.Messages, ev.Kind, linkErrSuffix(ev.Err)),
			}, true)
		}
	case transport.LinkRecovered:
		s.m.replayed.Add(uint64(ev.Messages))
		sites := s.sitesRoutedTo(ev.Peer)
		for _, site := range sites {
			s.clearLinkFailures(site)
		}
		// Tell every peer the outage is repaired so they can clear the
		// propagated copies (the recovery notification of Section 5).
		if s.ep != nil {
			for peer := range s.peerSet() {
				for _, site := range sites {
					s.ep.Send(peer, transport.Message{Kind: "recovered", FailSite: site, FailOp: "link"})
				}
			}
		}
	}
}

// clearLinkFailures drops recorded metric link failures for a site — the
// targeted counterpart of ClearFailures, safe to apply automatically
// because a drained outbox proves no message was lost.
func (s *Shell) clearLinkFailures(site string) {
	s.failMu.Lock()
	kept := s.failures[:0]
	for _, f := range s.failures {
		if f.Kind == cmi.FailMetric && f.Op == "link" && f.Site == site {
			continue
		}
		kept = append(kept, f)
	}
	s.failures = kept
	s.failMu.Unlock()
}

// Delivery reads back this shell instance's remote-fire delivery
// counters from the metrics registry, net of any activity recorded
// against the same shell ID before this instance was constructed.
func (s *Shell) Delivery() DeliveryCounts {
	return DeliveryCounts{
		RemoteFires:   s.m.remoteFires.Value() - s.m.base.RemoteFires,
		DroppedFires:  s.m.droppedFires.Value() - s.m.base.DroppedFires,
		RetriedFires:  s.m.retriedFires.Value() - s.m.base.RetriedFires,
		ReplayedSends: s.m.replayed.Value() - s.m.base.ReplayedSends,
	}
}

// Start computes rule ownership, subscribes to notification interfaces,
// and starts periodic event generation.  The toolkit calls this after all
// sites, routes and the transport are in place (the initialization phase
// of Section 4.1).
func (s *Shell) Start() error {
	if s.started {
		return fmt.Errorf("shell %s: already started", s.id)
	}
	if s.planErr != nil {
		return fmt.Errorf("shell %s: %w", s.id, s.planErr)
	}
	needNotify := map[string]string{} // item base -> site, for N/Ws LHS rules
	periods := map[time.Duration]string{}
	for i := range s.plan.Rules {
		p := &s.plan.Rules[i]
		owns := s.ownsRule(p)
		// A translator here delivers the base's callbacks even when the
		// fleet moved the rule to another shell: keep the subscription and
		// let onSourceChange forward each trigger to the owner.
		if (owns || s.sites[p.Site] != nil) && (p.Key.Op == event.OpN || p.Key.Op == event.OpWs) {
			needNotify[p.Key.Base] = p.Site
		}
		if !owns {
			continue
		}
		s.owned = append(s.owned, p)
		if p.Key.Op == event.OpP {
			periods[p.Rule.LHS.Period] = p.Site
		}
	}
	// Subscribe to spontaneous-change notification for bases the strategy
	// listens to.
	for base, site := range needNotify {
		iface := s.sites[site]
		if iface == nil {
			continue // private items: writes flow through the engine itself
		}
		base := base
		site := site
		cancel, err := iface.Subscribe(base, func(item data.ItemName, old, new data.Value) {
			s.onSourceChange(site, item, old, new)
		})
		if err != nil {
			return fmt.Errorf("shell %s: subscribing to %s at %s: %w", s.id, base, site, err)
		}
		s.subscribed[base] = true
		s.cancels = append(s.cancels, cancel)
	}
	// Periodic events.
	for p, site := range periods {
		p := p
		site := site
		tm := vclock.Every(s.clock, p, func() {
			s.post(task{f: func() {
				e := s.record(&event.Event{Time: s.clock.Now(), Site: site, Desc: event.P(p)})
				s.handleEvent(e)
			}})
		})
		s.periodics = append(s.periodics, tm)
	}
	s.buildDispatchIndex()
	s.started = true
	return nil
}

// buildDispatchIndex groups s.owned by their dispatch keys.
func (s *Shell) buildDispatchIndex() {
	s.dispatchIdx = make(map[rule.Key][]*rule.Placed, len(s.owned))
	for _, p := range s.owned {
		s.dispatchIdx[p.Key] = append(s.dispatchIdx[p.Key], p)
	}
}

// Stop cancels subscriptions and periodic schedules and closes the
// transport endpoint.
func (s *Shell) Stop() {
	for _, tm := range s.periodics {
		tm.Stop()
	}
	s.periodics = nil
	for _, c := range s.cancels {
		c()
	}
	s.cancels = nil
	if s.ep != nil {
		s.ep.Close()
	}
	s.started = false
}

// taskKind says what a queued task runs.
type taskKind uint8

const (
	// taskThunk runs f: custom message handlers and periodic ticks,
	// none of which is on the per-update path.
	taskThunk taskKind = iota
	// taskSpontaneous records Ws(item, old, new) at site and matches it.
	taskSpontaneous
	// taskNotify records the Ws/N pair of a translator notification.
	taskNotify
	// taskWriteRequest runs a CM write request WR(item, new) at site.
	taskWriteRequest
	// taskFire runs rule p's RHS for trigger under the task's bindings.
	taskFire
)

// triggerOps names the external task kinds on the "fleet-trigger" wire.
var triggerOps = [...]string{taskSpontaneous: "ws", taskNotify: "notify", taskWriteRequest: "wr"}

// inlineBindings is how many bindings a local firing carries inside its
// task.  Rules bind one to three parameters; a firing with more spills to
// one cloned map.
const inlineBindings = 4

// binding is one parameter of a firing carried inline.
type binding struct {
	name string
	v    data.Value
}

// task is one unit of work on the post queue.  The per-update entries —
// a spontaneous write, a notification, a write request, a local or
// received firing — are typed values that carry their arguments in the
// ring slot, so posting one allocates nothing; everything else is a thunk.
type task struct {
	kind taskKind
	f    func() // taskThunk

	// taskSpontaneous, taskNotify, taskWriteRequest
	site     string
	item     data.ItemName
	old, new data.Value

	// taskFire.  The bindings are the first nb entries of inline, or b
	// when the firing carries a map: a received one, or one past
	// inlineBindings.  run reads b and never writes into it.
	p       *rule.Placed
	trigger *event.Event
	b       event.Bindings
	nb      int
	inline  [inlineBindings]binding
}

// carry copies a borrowed bindings map into a firing task: inline when it
// fits, else into one cloned map.
func (t *task) carry(b event.Bindings) {
	if len(b) > inlineBindings {
		t.b = b.Clone()
		return
	}
	for k, v := range b {
		t.inline[t.nb] = binding{k, v}
		t.nb++
	}
}

// taskRing is a reusable FIFO ring buffer of queued tasks.  It reuses its
// storage across bursts and grows only when a burst outsizes every
// previous one.
type taskRing struct {
	buf  []task
	head int
	n    int
}

func (r *taskRing) push(t *task) {
	if r.n == len(r.buf) {
		grown := make([]task, max(8, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = *t
	r.n++
}

// pop moves the oldest task into t and reports whether there was one.
// The slot is cleared so the ring does not pin what the task referenced.
func (r *taskRing) pop(t *task) bool {
	if r.n == 0 {
		return false
	}
	*t = r.buf[r.head]
	r.buf[r.head] = task{}
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return true
}

// post runs t on the shell's run-to-completion queue: events generated
// while handling an event are processed after it, never reentrantly.  All
// work — spontaneous updates, translator notifications, inbound firings,
// write requests, ticks and internal continuations — enters here and runs
// in arrival order.  The queue is unbounded; cmtk_shell_queue_depth
// reports its depth.  The caller that finds the queue idle becomes its
// drainer and runs everything posted until it is empty again.
func (s *Shell) post(t task) {
	s.qmu.Lock()
	s.queue.push(&t)
	s.m.qdepth.Set(int64(s.queue.n))
	if s.processing {
		s.qmu.Unlock()
		return
	}
	s.processing = true
	for {
		ok := s.queue.pop(&t)
		s.m.qdepth.Set(int64(s.queue.n))
		if !ok {
			s.processing = false
			s.qcond.Broadcast()
			s.qmu.Unlock()
			return
		}
		s.qmu.Unlock()
		s.run(&t)
		s.qmu.Lock()
	}
}

// run executes one task on the drainer.  A firing's bindings, inline or
// a carried map, are copied into execB, which executeSteps may then
// extend: nothing else uses execB, and executeSteps never nests, because
// the firings it triggers are posted behind it.  A carried map is only
// read, so a received one may still be shared with the sender's outbox.
func (s *Shell) run(t *task) {
	switch t.kind {
	case taskThunk:
		t.f()
	case taskSpontaneous:
		e := s.record(&event.Event{Time: s.clock.Now(), Site: t.site, Desc: event.Ws(t.item, t.old, t.new)})
		s.handleEvent(e)
	case taskWriteRequest:
		s.writeRequest("", event.WR(t.item, t.new), t.site, nil)
	case taskNotify:
		now := s.clock.Now()
		ws := s.record(&event.Event{Time: now, Site: t.site, Desc: event.Ws(t.item, t.old, t.new)})
		notifRule := s.implicitRule("notify", t.site, t.item)
		n := s.record(&event.Event{
			Time: now, Site: t.site,
			Desc: event.N(t.item, t.new),
			Rule: notifRule.ID, Trigger: ws,
		})
		s.handleEvent(ws)
		s.handleEvent(n)
	case taskFire:
		b := s.execB
		clear(b)
		maps.Copy(b, t.b)
		for _, p := range t.inline[:t.nb] {
			b[p.name] = p.v
		}
		s.executeSteps(t.p, b, t.trigger)
	}
}

// record commits an event to the trace as a unit of one.  The sequence
// number and the timestamp are both drawn inside trace.AppendUnit, under
// the trace's commit mutex, so on a trace shared with peer shells
// committing concurrently seq order, commit order and stamp order agree
// (Appendix A.2 property 1).  The Time the caller put on e is overwritten
// there.
func (s *Shell) record(e *event.Event) *event.Event {
	s.m.events.Inc()
	e.Host = s.id
	s.one[0] = e
	s.tr.AppendUnit(s.one[:], s.clock.Now, nil)
	s.one[0] = nil
	return e
}

// Drain blocks until the post queue is empty and idle.  Work scheduled on
// timers that have not fired yet is not waited for.
func (s *Shell) Drain() {
	s.qmu.Lock()
	for s.queue.n > 0 || s.processing {
		s.qcond.Wait()
	}
	s.qmu.Unlock()
}

// implID identifies one generated interface rule in the cache.
type implID struct{ kind, site, base string }

// appendPendKey appends the key that identifies a CM-initiated write of v
// to item for trigger suppression: the item's key, a NUL, and v's literal.
// A literal never holds a raw NUL (strings are quoted with escapes), so
// the last NUL splits the key unambiguously.  Values with one literal, such
// as Int(5) and Float(5), share a key: a source may echo either.
func appendPendKey(dst []byte, item data.ItemName, v data.Value) []byte {
	return v.AppendLiteral(append(item.AppendKey(dst), 0))
}

// unpendLocked consumes one pending echo under key k and reports whether
// there was one.  It allocates only to store a count that stays above
// zero.  The caller holds pendMu.
func (s *Shell) unpendLocked(k []byte) bool {
	switch n := s.pending[string(k)]; n {
	case 0:
		return false
	case 1:
		delete(s.pending, string(k))
	default:
		s.pending[string(k)] = n - 1
	}
	return true
}

// onSourceChange receives a native change callback from a translator and
// decides whether it is the echo of a CM write (suppressed — the W event
// was recorded by the write path) or a genuinely spontaneous update, which
// becomes Ws then N per the notify interface statement.
func (s *Shell) onSourceChange(site string, item data.ItemName, old, new data.Value) {
	var buf [64]byte
	k := appendPendKey(buf[:0], item, new)
	s.pendMu.Lock()
	echo := s.unpendLocked(k)
	s.pendMu.Unlock()
	if echo {
		return
	}
	// Under sharded ownership the owner's implicit notify rule uses the
	// default 1s bound (it has no translator to read the declared one
	// from) — conservative, documented in DESIGN.md §10.
	s.external(taskNotify, site, item, old, new)
}

// Spontaneous injects a spontaneous write for items without a translator
// (CM-private scenarios and tests).  It mirrors onSourceChange.
func (s *Shell) Spontaneous(item data.ItemName, old, new data.Value) {
	s.external(taskSpontaneous, "", item, old, new)
}

// external takes a trigger from outside the rules — a translator's
// notification (kind taskNotify), a spontaneous write (taskSpontaneous)
// or a write request (taskWriteRequest) — to the fleet member that owns
// the item's base, or queues it here.  An empty site means the item's
// declared site, resolved by the shell that queues it.  A spontaneous
// write to a CM-private item hosted here sets the private copy before it
// is queued.
func (s *Shell) external(kind taskKind, site string, item data.ItemName, old, new data.Value) {
	if owner, ok := s.shardOwner(item.Base); ok && owner != s.id {
		s.forwardTrigger(kind, site, item, old, new, owner)
		return
	}
	if site == "" {
		var ok bool
		if site, ok = s.spec.SiteOf(item.Base); !ok {
			site = s.id
		}
	}
	if _, hosted := s.sites[site]; hosted && kind == taskSpontaneous && s.spec.Private[item.Base] == site {
		s.setPrivate(item, new)
	}
	s.post(task{kind: kind, site: site, item: item, old: old, new: new})
}

// handleEvent matches an event against the owned rules and dispatches
// firings.  It must run on the shell's queue.
func (s *Shell) handleEvent(e *event.Event) {
	k := rule.Key{Op: e.Desc.Op}
	if e.Desc.Op.HasItem() {
		k.Base = e.Desc.Item.Base
	}
	for _, p := range s.dispatchIdx[k] {
		s.matchRule(p, e)
	}
}

// matchRule tries one rule against one event, dispatching on a match
// whose condition holds.  Every attempt writes into scratchB (the queue
// runs one task at a time); dispatch borrows it and copies what it keeps.
// A delayed dispatch gets its own clone, because its timer outlives the
// scratch.
func (s *Shell) matchRule(p *rule.Placed, e *event.Event) {
	r := p.Rule
	b := s.scratchB
	clear(b)
	if !r.LHS.MatchInto(e.Desc, b) {
		return
	}
	// C0 is evaluated at the LHS site at trigger time, with
	// equality-binding semantics (Read interface pattern).  A nil
	// condition needs no environment at all.
	if r.Cond != nil {
		condOK, err := rule.EvalCondBinding(r.Cond, s.env(e.Site, b), b)
		if err != nil {
			s.reportFailure(cmi.Failure{
				Kind: cmi.FailLogical, Site: e.Site, When: s.clock.Now(),
				Op: "condition", Err: fmt.Errorf("rule %s: %w", r.ID, err),
			}, true)
			return
		}
		if !condOK {
			return
		}
	}
	s.m.matches.Inc()
	if s.opts.FireDelay == 0 {
		// Dispatch inline: the queue runs one task at a time, so firings
		// leave in match order and the FIFO transport keeps them ordered —
		// required on the real clock, where timer goroutines would
		// otherwise race (Appendix A.2 property 7).
		s.dispatch(p, b, e)
		return
	}
	bCopy, trigger := b.Clone(), e
	s.clock.AfterFunc(s.opts.FireDelay, func() { s.dispatch(p, bCopy, trigger) })
}

// dispatch routes a rule firing to the shell hosting the RHS site.  It
// borrows b: a local firing copies the bindings into its task and a
// remote one clones them into the message, whose receiver owns that map.
func (s *Shell) dispatch(p *rule.Placed, b event.Bindings, trigger *event.Event) {
	r, effSite := p.Rule, p.EffSite
	if effSite == "" {
		return
	}
	target, ok := s.routing[effSite]
	// Fleet mode: the RHS executes at the effect base's current owner,
	// not at the static hosting shell.
	if owner, shard := s.shardOwner(p.Effect); shard {
		target, ok = owner, true
	}
	if !ok {
		s.reportFailure(cmi.Failure{
			Kind: cmi.FailLogical, Site: effSite, When: s.clock.Now(),
			Op: "route", Err: fmt.Errorf("no shell hosts site %s", effSite),
		}, true)
		return
	}
	if target == s.id {
		s.m.localFires.Inc()
		obs.DefaultRing.Record(obs.FireTrace{
			Rule: r.ID, Shell: s.id, Site: trigger.Site,
			Outcome:     obs.OutcomeLocal,
			TriggerDesc: &trigger.Desc, Seq: trigger.Seq,
			Matched: trigger.Time, Dispatched: s.clock.Now(),
		})
		t := task{kind: taskFire, p: p, trigger: trigger}
		t.carry(b)
		s.post(t)
		return
	}
	if s.ep == nil {
		s.reportFailure(cmi.Failure{
			Kind: cmi.FailLogical, Site: effSite, When: s.clock.Now(),
			Op: "route", Err: fmt.Errorf("shell %s has no transport", s.id),
		}, true)
		return
	}
	// Trigger.Desc stays blank and the bindings ride as values: an
	// in-process receiver uses TriggerEvent and BindingsVal directly, and
	// the binary codec that carries the message over TCP and into the
	// reliable journal renders Trigger.Desc from TriggerEvent and writes
	// the values as tagged data, so a receiver in another process, or after
	// a crash replay, gets BindingsVal back too.
	msg := transport.Message{
		Kind:         "fire",
		Rule:         r.ID,
		BindingsVal:  b.Clone(),
		Trigger:      transport.EventRef{Site: trigger.Site, Seq: trigger.Seq, Time: trigger.Time},
		TriggerEvent: trigger,
	}
	if s.opts.Router != nil {
		// Stamp the route-table epoch so a receiver that rebalanced since
		// can tell in-flight pre-cutover traffic from misrouting.
		msg.Epoch = s.opts.Router.Epoch()
	}
	s.m.remoteFires.Inc()
	if err := s.ep.Send(target, msg); err != nil {
		// A raw endpoint rejected the send and the firing is gone for good;
		// a reliable endpoint never errors here — it buffers and reports
		// link health through onLinkEvent instead.
		s.m.droppedFires.Inc()
		obs.DefaultRing.Record(obs.FireTrace{
			Rule: r.ID, Shell: s.id, Site: trigger.Site, Target: target,
			Outcome:     obs.OutcomeDropped,
			TriggerDesc: &trigger.Desc, Seq: trigger.Seq,
			Matched: trigger.Time, Dispatched: s.clock.Now(),
		})
		s.reportFailure(cmi.Failure{
			Kind: cmi.FailMetric, Site: effSite, When: s.clock.Now(),
			Op:  "send fire " + r.ID,
			Err: fmt.Errorf("rule %s to shell %s: %w", r.ID, target, err),
		}, true)
		return
	}
	obs.DefaultRing.Record(obs.FireTrace{
		Rule: r.ID, Shell: s.id, Site: trigger.Site, Target: target,
		Outcome:     obs.OutcomeSent,
		TriggerDesc: &trigger.Desc, Seq: trigger.Seq,
		Matched: trigger.Time, Dispatched: s.clock.Now(),
	})
}

// receive handles an inbound transport message.
func (s *Shell) receive(m transport.Message) {
	switch m.Kind {
	case "fire":
		p := s.plan.Rule(m.Rule)
		if p == nil {
			s.reportFailure(cmi.Failure{
				Kind: cmi.FailLogical, Site: s.id, When: s.clock.Now(),
				Op: "receive", Err: fmt.Errorf("unknown rule %q from %s", m.Rule, m.From),
			}, false)
			return
		}
		s.noteStaleEpoch(&m)
		// A fire for a base this shell no longer owns — the sender held a
		// pre-rebalance table.  Re-route to the current owner.
		if owner, shard := s.shardOwner(p.Effect); shard && owner != s.id {
			s.forwardShard(m, owner, "fire")
			return
		}
		// Fast path: the sender's dispatch handed over a bindings map as
		// values (or the codec decoded one), so the task carries it as is;
		// run only reads it, because a journaled outbox may still hold the
		// same map.  Bindings wins when a sender supplied literals instead.
		b := m.BindingsVal
		if m.Bindings != nil || b == nil {
			var err error
			b, err = decodeBindings(m.Bindings)
			if err != nil {
				s.reportFailure(cmi.Failure{
					Kind: cmi.FailLogical, Site: s.id, When: s.clock.Now(),
					Op: "receive", Err: err,
				}, false)
				return
			}
		}
		trigger := m.TriggerEvent
		if trigger == nil {
			// A message that lost its in-process event pointer (journaled
			// replay after a restart, or a cross-process mesh): when the
			// deployment shares one trace, the original trigger is still in
			// it — re-link so provenance checking (property 5) survives.
			var buf [64]byte
			if e := s.tr.Find(m.Trigger.Seq); e != nil && e.Site == m.Trigger.Site &&
				string(e.Desc.AppendTo(buf[:0])) == m.Trigger.Desc {
				trigger = e
			} else {
				trigger = stubTrigger(m.Trigger)
			}
		}
		s.m.recvFires.Inc()
		s.post(task{kind: taskFire, p: p, trigger: trigger, b: b})
	case "failure":
		kind := cmi.FailMetric
		if m.FailKind == "logical" {
			kind = cmi.FailLogical
		}
		s.reportFailure(cmi.Failure{
			Kind: kind, Site: m.FailSite, When: s.clock.Now(),
			Op: m.FailOp, Err: fmt.Errorf("%s", m.FailErr),
		}, false)
	case "recovered":
		// A peer's degraded link drained its outbox: the propagated metric
		// link failures for that site are moot.
		s.clearLinkFailures(m.FailSite)
	case "fleet-trigger":
		// An external trigger forwarded from a non-owner fleet member.
		s.receiveTrigger(m)
	default:
		// Kept out of receive itself: capturing m in a closure here would
		// make the parameter escape on every call, heap-copying the Message
		// even for the hot "fire" path.
		s.receiveCustom(m)
	}
}

// receiveCustom queues a registered handler for a custom message kind.
func (s *Shell) receiveCustom(m transport.Message) {
	s.failMu.Lock()
	fn := s.custom[m.Kind]
	s.failMu.Unlock()
	if fn != nil {
		s.post(task{f: func() { fn(m) }})
	}
}

// RequestWrite issues a CM-originated write request outside any rule (a
// programmatic strategy action, like the Section 6.2 end-of-day sweep).
// The WR event is recorded as spontaneous — the sweeper plays the role of
// an application — and the performed W chains from it through the write
// interface rule.  It runs asynchronously on the shell's queue.
func (s *Shell) RequestWrite(item data.ItemName, v data.Value) {
	s.external(taskWriteRequest, "", item, data.NullValue, v)
}

// Interface returns the translator for a hosted site (nil when the site
// is private-only or not hosted here).
func (s *Shell) Interface(site string) cmi.Interface { return s.sites[site] }

// HandleKind registers a handler for a custom inter-shell message kind
// (programmatic strategy components such as the Demarcation Protocol use
// this for their own request/grant traffic).  Handlers run on the shell's
// event queue.
func (s *Shell) HandleKind(kind string, fn func(transport.Message)) {
	s.failMu.Lock() // reuse; handler registration is rare
	if s.custom == nil {
		s.custom = map[string]func(transport.Message){}
	}
	s.custom[kind] = fn
	s.failMu.Unlock()
}

// SendCustom sends a custom message to a peer shell.
func (s *Shell) SendCustom(to string, m transport.Message) error {
	if s.ep == nil {
		return fmt.Errorf("shell %s: no transport", s.id)
	}
	return s.ep.Send(to, m)
}

// stubTrigger reconstructs a trigger event from its wire reference; the
// interpretations are unknown, so remote deployments skip full trace
// checking (simulated deployments share a trace and never hit this path).
func stubTrigger(ref transport.EventRef) *event.Event {
	e := &event.Event{Site: ref.Site, Seq: ref.Seq, Time: ref.Time}
	if tpl, err := rule.ParseTemplate(ref.Desc); err == nil {
		if d, err := tpl.Subst(event.Bindings{}); err == nil {
			e.Desc = d
		}
	}
	return e
}

// executeSteps runs the RHS of a rule at this shell, the rule's effect
// site.  Runs on the queue, from run only; it may extend b, which is
// always execB, and keeps no reference to it.
func (s *Shell) executeSteps(p *rule.Placed, b event.Bindings, trigger *event.Event) {
	r, site := p.Rule, p.EffSite
	now := s.clock.Now()
	obs.DefaultRing.Record(obs.FireTrace{
		Rule: r.ID, Shell: s.id, Site: trigger.Site,
		Outcome:     obs.OutcomeExecuted,
		TriggerDesc: &trigger.Desc, Seq: trigger.Seq,
		Matched: trigger.Time, Executed: now,
	})
	if d := now.Sub(trigger.Time); d >= 0 && !trigger.Time.IsZero() {
		s.m.latency.Observe(d.Seconds())
	}
	// The reserved parameter "now" is bound to the current time at the
	// effect site when the rule fires (used by monitor strategies to
	// record Tb, Section 6.3).
	b["now"] = vclock.TimeValue(now)
	for _, step := range r.Steps {
		if step.Eff.Op == event.OpF {
			continue // promises, not actions
		}
		var desc event.Desc
		if step.ValExpr != nil {
			// Computed effect value: evaluate the expression against data
			// local to the effect site at firing time (the Section 7.1
			// recomputation pattern).
			item, err := step.Eff.Item.Subst(b)
			if err != nil {
				s.reportFailure(cmi.Failure{
					Kind: cmi.FailLogical, Site: s.id, When: s.clock.Now(),
					Op: "execute", Err: fmt.Errorf("rule %s: %w", r.ID, err),
				}, true)
				continue
			}
			v, err := step.ValExpr.Eval(s.env(site, b))
			if err != nil {
				s.reportFailure(cmi.Failure{
					Kind: cmi.FailLogical, Site: site, When: s.clock.Now(),
					Op: "execute", Err: fmt.Errorf("rule %s eval: %w", r.ID, err),
				}, true)
				continue
			}
			desc = event.Desc{Op: step.Eff.Op, Item: item, Val: v}
		} else {
			var err error
			desc, err = step.Eff.Subst(b)
			if err != nil {
				s.reportFailure(cmi.Failure{
					Kind: cmi.FailLogical, Site: s.id, When: s.clock.Now(),
					Op: "execute", Err: fmt.Errorf("rule %s: %w", r.ID, err),
				}, true)
				continue
			}
		}
		// The step guard is evaluated against data local to the effect
		// site at firing time.
		if step.Cond != nil {
			ok, err := rule.EvalBool(step.Cond, s.env(site, b))
			if err != nil {
				s.reportFailure(cmi.Failure{
					Kind: cmi.FailLogical, Site: site, When: s.clock.Now(),
					Op: "guard", Err: fmt.Errorf("rule %s: %w", r.ID, err),
				}, true)
				continue
			}
			if !ok {
				continue
			}
		}
		s.emit(r, desc, site, trigger)
	}
}

// emit performs one effect event.
func (s *Shell) emit(r *rule.Rule, desc event.Desc, site string, trigger *event.Event) {
	switch desc.Op {
	case event.OpWR:
		s.writeRequest(r.ID, desc, site, trigger)
	case event.OpW:
		// Direct write: a W effect performs the write immediately (no
		// request hop).
		iface := s.source(site, desc.Item.Base)
		if iface != nil && !s.translatorWrite(iface, desc) {
			return // failure already reported by the translator hub
		}
		w := s.record(&event.Event{Site: site, Desc: desc, Rule: r.ID, Trigger: trigger})
		if iface == nil {
			s.setPrivate(desc.Item, desc.Val)
		}
		s.handleEvent(w)
	case event.OpRR:
		rr := s.record(&event.Event{Site: site, Desc: desc, Rule: r.ID, Trigger: trigger})
		s.handleEvent(rr)
		v, exists, err := s.read(site, desc.Item)
		if err != nil {
			return // reported by the hub
		}
		if !exists {
			v = data.NullValue
		}
		readRule := s.implicitRule("read", site, desc.Item)
		resp := s.record(&event.Event{Site: site, Desc: event.R(desc.Item, v), Rule: readRule.ID, Trigger: rr})
		s.handleEvent(resp)
	case event.OpN:
		n := s.record(&event.Event{Site: site, Desc: desc, Rule: r.ID, Trigger: trigger})
		s.handleEvent(n)
	default:
		s.reportFailure(cmi.Failure{
			Kind: cmi.FailLogical, Site: site, When: s.clock.Now(),
			Op: "execute", Err: fmt.Errorf("rule %s: cannot emit %s", r.ID, desc),
		}, true)
	}
}

// writeRequest records the write request desc at site — rule ruleID's,
// caused by trigger, or a spontaneous one when ruleID is empty — and
// performs it through source: a translator write, or a set of the
// private copy.  A performed write is recorded as W under the site's
// implicit write rule.
func (s *Shell) writeRequest(ruleID string, desc event.Desc, site string, trigger *event.Event) {
	wr := s.record(&event.Event{Site: site, Desc: desc, Rule: ruleID, Trigger: trigger})
	s.handleEvent(wr)
	if iface := s.source(site, desc.Item.Base); iface == nil {
		s.setPrivate(desc.Item, desc.Val)
	} else if !s.translatorWrite(iface, desc) {
		return // failure already reported by the translator hub
	}
	writeRule := s.implicitRule("write", site, desc.Item)
	w := s.record(&event.Event{Site: site, Desc: event.W(desc.Item, desc.Val), Rule: writeRule.ID, Trigger: wr})
	s.handleEvent(w)
}

// source is the translator through which base is read and written at
// site, or nil when the item lives in the shell's private state: the base
// is CM-private (Section 3.2), or the site has no translator.
func (s *Shell) source(site, base string) cmi.Interface {
	if s.spec.Private[base] != "" {
		return nil
	}
	return s.sites[site]
}

// read reads an item at site through source.
func (s *Shell) read(site string, n data.ItemName) (data.Value, bool, error) {
	if iface := s.source(site, n.Base); iface != nil {
		return iface.Read(n)
	}
	s.privMu.RLock()
	v := s.private.Get(n)
	s.privMu.RUnlock()
	return v, !v.IsNull(), nil
}

// translatorWrite performs a write through a translator with echo
// suppression: if the base is subscribed, the source's own trigger for
// this write must not be mistaken for a spontaneous update.  It reports
// whether the write succeeded.
func (s *Shell) translatorWrite(iface cmi.Interface, desc event.Desc) bool {
	if !s.subscribed[desc.Item.Base] {
		return iface.Write(desc.Item, desc.Val) == nil
	}
	var buf [64]byte
	k := appendPendKey(buf[:0], desc.Item, desc.Val)
	s.pendMu.Lock()
	s.pending[string(k)]++
	s.pendMu.Unlock()
	if err := iface.Write(desc.Item, desc.Val); err != nil {
		s.pendMu.Lock()
		s.unpendLocked(k)
		s.pendMu.Unlock()
		return false
	}
	return true
}

// env builds the condition-evaluation environment for a site: CM-private
// items plus the site's database items through its translator.  The
// shell's single evalEnv is reused — expression evaluation is synchronous
// and the queue runs one task at a time, so returning a pointer into the
// shell costs no allocation per evaluation.
func (s *Shell) env(site string, b event.Bindings) rule.Env {
	s.evalEnv.site = site
	s.evalEnv.params = b
	return &s.evalEnv
}

type shellEnv struct {
	s      *Shell
	site   string
	params event.Bindings
}

func (e *shellEnv) Param(name string) (data.Value, bool) {
	v, ok := e.params[name]
	return v, ok
}

// NowValue implements rule.NowEnv for the now() builtin.
func (e *shellEnv) NowValue() (data.Value, bool) {
	return vclock.TimeValue(e.s.clock.Now()), true
}

func (e *shellEnv) Item(n data.ItemName) (data.Value, bool, error) { return e.s.read(e.site, n) }

// implicitRule returns (generating on first use) the canonical interface
// statement rule for provenance of translator-performed actions:
// if:write:SITE:BASE, if:read:SITE:BASE, if:notify:SITE:BASE.  The time
// bound is taken from the site's declared interface statements when one
// matches, else a conservative 1s.
func (s *Shell) implicitRule(kind, site string, item data.ItemName) rule.Rule {
	key := implID{kind: kind, site: site, base: item.Base}
	s.implMu.Lock()
	defer s.implMu.Unlock()
	if r, ok := s.implicit[key]; ok {
		return r
	}
	id := "if:" + kind + ":" + site + ":" + item.Base
	// Parameter slots matching the item's arity.
	args := make([]event.Term, len(item.Args))
	condArgs := make([]rule.Expr, len(item.Args))
	for i := range item.Args {
		p := fmt.Sprintf("k%d", i+1)
		args[i] = event.Param(p)
		condArgs[i] = rule.ParamRef{Name: p}
	}
	it := event.ItemT(item.Base, args...)
	delta := s.declaredDelta(kind, site, item.Base)
	var r rule.Rule
	switch kind {
	case "write":
		r = rule.Rule{ID: id, LHS: event.TWR(it, event.Param("v")), Delta: delta,
			Steps: []rule.Step{{Eff: event.TW(it, event.Param("v"))}}}
	case "read":
		r = rule.Rule{ID: id, LHS: event.TRR(it), Delta: delta,
			Cond:  rule.Binary{Op: "=", L: rule.ItemRef{Base: item.Base, Args: condArgs}, R: rule.ParamRef{Name: "v"}},
			Steps: []rule.Step{{Eff: event.TR(it, event.Param("v"))}}}
	case "notify":
		r = rule.Rule{ID: id, LHS: event.TWs2(it, event.Param("v")), Delta: delta,
			Steps: []rule.Step{{Eff: event.TN(it, event.Param("v"))}}}
	default:
		panic("shell: unknown implicit rule kind " + kind)
	}
	s.implicit[key] = r
	return r
}

// declaredDelta finds the time bound a site's CM-RID declared for an
// interface kind over an item base.
func (s *Shell) declaredDelta(kind, site, base string) time.Duration {
	iface := s.sites[site]
	if iface == nil {
		return time.Second
	}
	for _, st := range iface.Statements() {
		if len(st.Steps) != 1 {
			continue
		}
		eff := st.Steps[0].Eff
		match := false
		switch kind {
		case "write":
			match = st.LHS.Op == event.OpWR && eff.Op == event.OpW && st.LHS.Item.Base == base
		case "read":
			match = st.LHS.Op == event.OpRR && eff.Op == event.OpR && st.LHS.Item.Base == base
		case "notify":
			match = st.LHS.Op == event.OpWs && eff.Op == event.OpN && st.LHS.Item.Base == base
		}
		if match {
			return st.Delta
		}
	}
	return time.Second
}

// ImplicitRules returns the interface rules generated so far; deployments
// hand these to the trace checker together with the strategy rules.
func (s *Shell) ImplicitRules() []rule.Rule {
	s.implMu.Lock()
	defer s.implMu.Unlock()
	out := make([]rule.Rule, 0, len(s.implicit))
	for _, r := range s.implicit {
		out = append(out, r)
	}
	return out
}

// ReadAux reads a CM-private data item — the application interface of
// Section 4.1 ("a simple programmatic interface to allow applications to
// read auxiliary CM data").
func (s *Shell) ReadAux(item data.ItemName) (data.Value, bool) {
	s.privMu.RLock()
	defer s.privMu.RUnlock()
	v := s.private.Get(item)
	return v, !v.IsNull()
}

// WriteAux initializes a CM-private data item (setup only; strategies
// write private data through W effects).
func (s *Shell) WriteAux(item data.ItemName, v data.Value) {
	s.setPrivate(item, v)
}

// OnFailure registers a failure observer.
func (s *Shell) OnFailure(fn func(cmi.Failure)) {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	s.failureFns = append(s.failureFns, fn)
}

// Failures returns the failures observed so far (local and propagated).
func (s *Shell) Failures() []cmi.Failure {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	return append([]cmi.Failure{}, s.failures...)
}

// reportFailure records a failure, notifies observers and, when the
// failure was detected locally, propagates it to all peer shells so they
// can mark affected guarantees invalid (Section 5).
func (s *Shell) reportFailure(f cmi.Failure, propagate bool) {
	if f.Kind == cmi.FailMetric {
		s.m.failMetric.Inc()
	} else {
		s.m.failLogical.Inc()
	}
	s.failMu.Lock()
	s.failures = append(s.failures, f)
	fns := append([]func(cmi.Failure){}, s.failureFns...)
	s.failMu.Unlock()
	for _, fn := range fns {
		fn(f)
	}
	if !propagate || s.ep == nil {
		return
	}
	for peer := range s.peerSet() {
		s.ep.Send(peer, transport.Message{
			Kind:     "failure",
			FailSite: f.Site,
			FailKind: f.Kind.String(),
			FailOp:   f.Op,
			FailErr:  fmt.Sprint(f.Err),
		})
	}
}

func decodeBindings(m map[string]string) (event.Bindings, error) {
	out := make(event.Bindings, len(m))
	for k, s := range m {
		v, err := data.ParseLiteral(s)
		if err != nil {
			return nil, fmt.Errorf("shell: bad binding %s=%q: %w", k, s, err)
		}
		out[k] = v
	}
	return out, nil
}

// ReportMetricFailure injects a metric failure observation (used by fault
// injection in tests and the benchmark harness) and propagates it to
// peers like any translator-detected failure.
func (s *Shell) ReportMetricFailure(site, op string, err error) {
	s.reportFailure(cmi.Failure{
		Kind: cmi.FailMetric, Site: site, When: s.clock.Now(), Op: op, Err: err,
	}, true)
}

// ReportLogicalFailure injects a logical failure observation.
func (s *Shell) ReportLogicalFailure(site, op string, err error) {
	s.reportFailure(cmi.Failure{
		Kind: cmi.FailLogical, Site: site, When: s.clock.Now(), Op: op, Err: err,
	}, true)
}

// ClearFailures forgets all recorded failures — the local half of the
// Section 5 "system reset" that restores guarantee validity after a
// logical failure has been repaired.
func (s *Shell) ClearFailures() {
	s.failMu.Lock()
	s.failures = nil
	s.failMu.Unlock()
}
