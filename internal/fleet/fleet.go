package fleet

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/obs"
	"cmtk/internal/rule"
	"cmtk/internal/shell"
	"cmtk/internal/trace"
	"cmtk/internal/transport"
	"cmtk/internal/vclock"
)

// Options configures a fleet.
type Options struct {
	// Members are the shell IDs (at least one).
	Members []string
	// Trace is the shared event trace; nil allocates an empty one.  All
	// members share one trace so the Appendix A.2 checker sees the whole
	// execution.
	Trace *trace.Trace
	// Metrics is the registry (nil = obs.Default).
	Metrics *obs.Registry
}

// Fleet is an in-process sharded deployment: N shells sharing one spec,
// one trace, and one mesh, with item-base ownership assigned by a
// consistent-hash route table instead of static site hosting.  Ingress
// (Post, RequestWrite, WriteAux) routes by the current table the way a
// table-holding translator would; Rebalance moves ownership, and the
// moving bases' private items as values, at an atomic epoch boundary.
type Fleet struct {
	spec   *rule.Spec
	params Params
	bases  []string
	clock  vclock.Clock
	tr     *trace.Trace
	net    *countingNet
	reg    *obs.Registry

	// mu is the ingress gate: Post and friends hold it shared, Rebalance
	// holds it exclusively across drain→handoff→cutover, so no external
	// trigger can slip in mid-handoff.
	mu      sync.RWMutex
	table   Table
	shells  map[string]*shell.Shell
	routers map[string]*Router
	order   []string // all live shells, in creation order

	rebalances *obs.Counter
	moved      *obs.Counter
	handoff    *obs.Counter

	started bool
}

// countingNet wraps the mesh with send/delivery accounting: the mesh is
// quiescent exactly when every send has been received and processed
// (delivered increments after the receive callback returns).
type countingNet struct {
	inner     transport.Network
	sent      atomic.Uint64
	delivered atomic.Uint64
}

func (n *countingNet) Join(id string, recv func(transport.Message)) (transport.Endpoint, error) {
	ep, err := n.inner.Join(id, func(m transport.Message) {
		recv(m)
		n.delivered.Add(1)
	})
	if err != nil {
		return nil, err
	}
	return &countingEndpoint{ep: ep, n: n}, nil
}

type countingEndpoint struct {
	ep transport.Endpoint
	n  *countingNet
}

func (e *countingEndpoint) Send(to string, m transport.Message) error {
	e.n.sent.Add(1)
	return e.ep.Send(to, m)
}

func (e *countingEndpoint) Close() error { return e.ep.Close() }

// quiet reports whether every sent message has been fully processed.
func (n *countingNet) quiet() bool { return n.sent.Load() == n.delivered.Load() }

// New assembles a fleet for a spec.  The spec must be fully CM-private
// (no translator-backed items): the in-process fleet shards constraint
// state, while mixed deployments place translator sites with a route file
// and cmshell's -route-table flag.  The ring uses DefaultVNodes and
// DefaultLoadFactor.
func New(spec *rule.Spec, o Options) (*Fleet, error) {
	if len(spec.Items) > 0 {
		return nil, fmt.Errorf("fleet: spec has %d translator-backed item(s); the in-process fleet shards CM-private state only (pin database sites with a route file and cmshell -route-table)", len(spec.Items))
	}
	plan, err := spec.Plan()
	if err != nil {
		return nil, err
	}
	members := dedupSorted(o.Members)
	// Real time is what an in-process fleet needs: bus deliveries ride
	// timer callbacks, and a virtual clock fires those only inside
	// Advance/Run.  The fleet wraps the bus with send/delivery accounting
	// so Drain and Rebalance can prove the mesh is quiescent.
	clock := vclock.Real{}
	reg := o.Metrics
	if reg == nil {
		reg = obs.Default
	}
	tr := o.Trace
	if tr == nil {
		tr = trace.New(nil)
	}
	f := &Fleet{
		spec:    spec,
		params:  Params{Affinity: Affinity(plan)}.withDefaults(),
		bases:   SpecBases(spec),
		clock:   clock,
		tr:      tr,
		net:     &countingNet{inner: transport.NewBus(clock, 0)},
		reg:     reg,
		shells:  map[string]*shell.Shell{},
		routers: map[string]*Router{},
		rebalances: reg.Counter("cmtk_fleet_rebalances_total",
			"Completed rebalance operations (epoch cutovers).").With(),
		moved: reg.Counter("cmtk_fleet_moved_bases_total",
			"Item bases whose owner changed across all rebalances.").With(),
		handoff: reg.Counter("cmtk_fleet_handoff_items_total",
			"CM-private items exported from an old owner and imported at the new one during rebalances.").With(),
	}

	t, err := Assign(1, members, f.bases, f.params)
	if err != nil {
		return nil, err
	}
	f.table = t
	for _, id := range members {
		if err := f.addShellLocked(id); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// addShellLocked builds one member: router with the current table, shell
// with the shared clock/trace/spec, every site added as private-hosted,
// full peer wiring, mesh join.
func (f *Fleet) addShellLocked(id string) error {
	if _, dup := f.shells[id]; dup {
		return fmt.Errorf("fleet: duplicate member %s", id)
	}
	rt := NewRouter(id, f.reg)
	rt.Install(f.table)
	sh := shell.New(id, f.spec, shell.Options{
		Clock:  f.clock,
		Trace:  f.tr,
		Router: rt,
	})
	for _, site := range f.spec.Sites {
		sh.AddSite(site, nil)
	}
	for _, peer := range f.order {
		sh.AddPeer(peer)
		f.shells[peer].AddPeer(id)
	}
	if err := sh.Attach(f.net); err != nil {
		return fmt.Errorf("fleet: joining %s to the mesh: %w", id, err)
	}
	f.shells[id] = sh
	f.routers[id] = rt
	f.order = append(f.order, id)
	if f.started {
		if err := sh.Start(); err != nil {
			return err
		}
	}
	return nil
}

// Start starts every member.
func (f *Fleet) Start() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.started {
		return fmt.Errorf("fleet: already started")
	}
	for _, id := range f.order {
		if err := f.shells[id].Start(); err != nil {
			return err
		}
	}
	f.started = true
	return nil
}

// AddShell joins a new member to the mesh without giving it ownership;
// follow with Rebalance to move bases onto it.
func (f *Fleet) AddShell(id string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.addShellLocked(id)
}

// Post routes an external spontaneous update to the base's current
// owner — the ingress path a table-holding translator uses.
func (f *Fleet) Post(item data.ItemName, old, new data.Value) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	sh, err := f.ownerLocked(item.Base)
	if err != nil {
		return err
	}
	sh.Spontaneous(item, old, new)
	return nil
}

// WriteAux initializes a CM-private item at its owner (setup only).
func (f *Fleet) WriteAux(item data.ItemName, v data.Value) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	sh, err := f.ownerLocked(item.Base)
	if err != nil {
		return err
	}
	sh.WriteAux(item, v)
	return nil
}

func (f *Fleet) ownerLocked(base string) (*shell.Shell, error) {
	owner, ok := f.table.Owner(base)
	if !ok {
		return nil, fmt.Errorf("fleet: base %s is not in the route table", base)
	}
	sh, ok := f.shells[owner]
	if !ok {
		return nil, fmt.Errorf("fleet: table assigns %s to unknown member %s", base, owner)
	}
	return sh, nil
}

// Drain blocks until the whole fleet is quiescent: every shell's queues
// are empty and every mesh message (including forwards triggered while
// draining) has been processed.
func (f *Fleet) Drain() {
	f.mu.RLock()
	defer f.mu.RUnlock()
	f.drainLocked()
}

func (f *Fleet) drainLocked() {
	for {
		s0, d0 := f.net.sent.Load(), f.net.delivered.Load()
		for _, id := range f.order {
			f.shells[id].Drain()
		}
		if f.net.quiet() && s0 == f.net.sent.Load() && d0 == f.net.delivered.Load() {
			return
		}
		// In-flight bus deliveries ride real-clock timer goroutines; yield
		// rather than spin.  The sleep only paces this poll loop — it never
		// influences a committed timestamp or verdict.
		runtime.Gosched()
		//cmlint:allow wallclock(quiesce poll pacing only; no deterministic state reads this clock)
		time.Sleep(100 * time.Microsecond)
	}
}

// RebalanceReport describes one completed rebalance.
type RebalanceReport struct {
	Epoch uint64 // the new table's epoch
	Moves []Move // bases that changed owner
	Items int    // private items handed off
}

// Rebalance recomputes ownership over a new membership set and cuts
// over atomically:
//
//  1. the ingress gate closes (no new external triggers),
//  2. the mesh and every shell drain (the moving shards' outboxes empty),
//  3. each moving base's CM-private items are removed from its old owner
//     and installed, as values, at the new one,
//  4. the next-epoch table installs on every router,
//  5. the gate reopens.
//
// In-flight messages stamped with the old epoch that surface later (a
// cross-process mesh cannot be globally drained) are forwarded to the
// new owner by the shell's stale-epoch path.  Every member must already
// run (AddShell first to grow); members absent from the new set stay in
// the mesh but own nothing afterwards.
func (f *Fleet) Rebalance(members []string) (RebalanceReport, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	members = dedupSorted(members)
	for _, id := range members {
		if _, ok := f.shells[id]; !ok {
			return RebalanceReport{}, fmt.Errorf("fleet: member %s is not running (AddShell first)", id)
		}
	}
	next, err := Assign(f.table.Epoch+1, members, f.bases, f.params)
	if err != nil {
		return RebalanceReport{}, err
	}
	f.drainLocked()
	moves := Moves(f.table, next)

	// Handoff: group the moving bases by (from, to) pair so each pair is
	// one export/import.
	type hop struct{ from, to string }
	byHop := map[hop]map[string]bool{}
	for _, m := range moves {
		h := hop{m.From, m.To}
		if byHop[h] == nil {
			byHop[h] = map[string]bool{}
		}
		byHop[h][m.Base] = true
	}
	items := 0
	for _, m := range moves { // iterate moves for deterministic order
		h := hop{m.From, m.To}
		bases := byHop[h]
		if bases == nil {
			continue // pair already handed off
		}
		delete(byHop, h)
		moving := f.shells[h.from].ExportPrivate(func(b string) bool { return bases[b] })
		f.shells[h.to].ImportPrivate(moving)
		items += len(moving)
	}

	// Cutover: one epoch boundary for the whole fleet.  Ownership refresh
	// happens inside the same gated window, so no member dispatches
	// against a half-updated rule set.
	f.table = next
	for _, id := range f.order {
		f.routers[id].Install(next)
		f.shells[id].RefreshOwnership()
	}
	f.rebalances.Inc()
	f.moved.Add(uint64(len(moves)))
	f.handoff.Add(uint64(items))
	return RebalanceReport{Epoch: next.Epoch, Moves: moves, Items: items}, nil
}

// Trace returns the shared event trace.
func (f *Fleet) Trace() *trace.Trace { return f.tr }

// CheckTrace validates the shared trace against the Appendix A.2
// checker, using the spec rules plus every member's implicit interface
// rules.
func (f *Fleet) CheckTrace() []trace.Violation {
	f.mu.RLock()
	rules := append([]rule.Rule{}, f.spec.Rules...)
	for _, id := range f.order {
		rules = append(rules, f.shells[id].ImplicitRules()...)
	}
	f.mu.RUnlock()
	return trace.NewChecker(rules).Check(f.tr)
}

// Stop stops every member and closes their mesh endpoints.
func (f *Fleet) Stop() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, id := range f.order {
		f.shells[id].Stop()
	}
	f.started = false
}
