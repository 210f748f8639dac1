// Parallel execution engine: lock-striped partitions by item base, one
// worker goroutine per partition, footprint locks for cross-partition
// rule firings, and a single serialized trace commit point per unit of
// work.  DESIGN.md §9 documents the concurrency model and the argument
// for why the Appendix A.2 checker's observed order is preserved.
//
// The unit is the atom of execution: one external trigger (spontaneous
// update, inbound firing, write request, periodic tick) plus every local
// rule firing it transitively causes.  A unit runs entirely on one
// worker, buffering its trace appends and remote sends; at the end the
// buffered events are committed through trace.AppendUnit, which assigns
// them one contiguous block of sequence numbers and a single commit
// timestamp under the trace's commit mutex.  Units are therefore atomic
// in sequence order, which is what keeps properties 2 and 7 intact under
// concurrency.
//
// Lock order (must never be acquired in reverse):
//
//	partition dataMu (ascending index) → trace commitMu → trace shard mu
//
// A unit's footprint — the set of partitions whose item bases it can
// possibly read or write, precomputed as a transitive closure over the
// rule graph — is locked in ascending partition order before the unit
// runs (the "ordered two-phase acquire"), so cross-partition firings
// cannot deadlock and conditions never observe a concurrent unit's
// half-applied writes.
package shell

import (
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"cmtk/internal/event"
	"cmtk/internal/obs"
	"cmtk/internal/rule"
)

// WorkersAuto sizes Options.Workers to runtime.GOMAXPROCS(0).
const WorkersAuto = -1

// maxWorkers caps the partition count so a unit's footprint fits in one
// 64-bit mask.
const maxWorkers = 64

// resolveWorkers maps Options.Workers onto an engine size: anything
// below 2 (including the zero value) keeps the serial engine, WorkersAuto
// asks for one partition per core.
func resolveWorkers(w int) int {
	if w == WorkersAuto {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	if w > maxWorkers {
		w = maxWorkers
	}
	return w
}

// partMask is a bitmask of partition indexes — a unit's footprint.
type partMask uint64

// exec is one execution context: the scratch state the match loop and
// expression evaluator reuse, plus (in parallel mode) the unit buffer for
// the work in flight.  The serial engine has exactly one exec, serialized
// by the post queue; the parallel engine has one per partition, used only
// by that partition's worker.
type exec struct {
	s        *Shell
	scratchB event.Bindings
	evalEnv  shellEnv
	// unit is non-nil while a parallel unit is running on this exec;
	// record and dispatch buffer into it instead of touching the trace and
	// transport directly.
	unit    *unit
	latency *obs.Histogram
	// one is record's scratch slice for the serial engine, which commits
	// single events through AppendUnit without allocating.
	one [1]*event.Event
}

func newExec(s *Shell, part int) *exec {
	x := &exec{
		s:        s,
		scratchB: event.Bindings{},
		latency:  s.m.latencyVec.With(s.id, strconv.Itoa(part)),
	}
	x.evalEnv.s = s
	return x
}

// unit buffers one atom of parallel work until its commit point.
type unit struct {
	events []*event.Event // trace appends, in processing order
	sends  []pendingSend  // remote firings, flushed in commit order
	// cont queues local cascade continuations, replacing the serial post
	// queue inside the unit: an event's other matches run before the
	// firings it caused, exactly like the run-to-completion queue.
	cont funcRing
}

// pendingSend is one remote rule firing awaiting its unit's commit; the
// transport message is built only at send time, after the trigger's
// sequence number and timestamp are final.
type pendingSend struct {
	target  string
	effSite string
	r       *rule.Rule
	b       event.Bindings
	trigger *event.Event
}

// queuedUnit is one admitted-but-not-yet-run unit on a partition queue.
type queuedUnit struct {
	fp partMask
	fn func(*exec)
}

// unitRing is a FIFO ring buffer of queued units (same shape as
// funcRing).
type unitRing struct {
	buf  []queuedUnit
	head int
	n    int
}

func (r *unitRing) push(u queuedUnit) {
	if r.n == len(r.buf) {
		grown := make([]queuedUnit, max(8, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = u
	r.n++
}

func (r *unitRing) pop() (queuedUnit, bool) {
	if r.n == 0 {
		return queuedUnit{}, false
	}
	u := r.buf[r.head]
	r.buf[r.head] = queuedUnit{}
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return u, true
}

// partition is one lock stripe of the parallel engine: a FIFO unit queue
// drained by a dedicated worker (preserving per-base admission order),
// the partition's data lock (a member of every overlapping unit's
// footprint), and the worker's exec.
type partition struct {
	mu   sync.Mutex // guards q; cond signals both the worker and AdmitBlock waiters
	cond *sync.Cond
	q    unitRing
	// dataMu is the footprint lock: held, in ascending partition order
	// with the rest of the unit's footprint, while any unit that can touch
	// this partition's item bases runs.
	//cmlint:lockrank 10
	dataMu sync.Mutex
	eng    *exec
	depth  *obs.Gauge
}

// parallel is the multi-core engine for one shell.
type parallel struct {
	s     *Shell
	parts []*partition
	all   partMask

	// Footprints, precomputed at Start from the rule graph; read-only
	// afterwards.  baseFp[b] covers everything a unit triggered by an
	// event on base b can reach; ruleFp[id] covers one rule's firing.
	baseFp map[string]partMask
	ruleFp map[string]partMask

	// workerGIDs marks the engine's own goroutines so a worker that posts
	// external work mid-unit (a translator echo, a cascading update) is
	// admitted instead of blocking on its own queue under AdmitBlock.
	gidMu      sync.RWMutex
	workerGIDs map[uint64]bool

	closed atomic.Bool

	// pending counts admitted units not yet committed; Drain waits on it.
	pendMu   sync.Mutex
	pendCond *sync.Cond
	pending  int

	// Remote sends flushed at commit points land on sendQ in commit order
	// and a dedicated sender goroutine performs them, so a blocking
	// transport (or a backpressured peer) stalls only the sender, never a
	// worker holding the trace's commit mutex.
	sendMu   sync.Mutex
	sendCond *sync.Cond
	sendQ    []pendingSend
	sendBusy bool

	workerWG sync.WaitGroup
	senderWG sync.WaitGroup
}

// newParallel builds and starts the engine; Start calls it after the
// dispatch index and routing are final.
func newParallel(s *Shell) *parallel {
	p := &parallel{
		s:          s,
		parts:      make([]*partition, s.workers),
		all:        partMask(1)<<s.workers - 1,
		workerGIDs: map[uint64]bool{},
	}
	p.pendCond = sync.NewCond(&p.pendMu)
	p.sendCond = sync.NewCond(&p.sendMu)
	for i := range p.parts {
		pt := &partition{
			eng:   newExec(s, i),
			depth: s.m.partDepth.With(s.id, strconv.Itoa(i)),
		}
		pt.cond = sync.NewCond(&pt.mu)
		p.parts[i] = pt
	}
	p.computeFootprints()
	var ready sync.WaitGroup
	ready.Add(len(p.parts))
	p.workerWG.Add(len(p.parts))
	for i := range p.parts {
		go p.worker(i, &ready)
	}
	p.senderWG.Add(1)
	go p.sender()
	ready.Wait() // worker GIDs registered before any unit can be admitted
	return p
}

// partOf hashes an item base (or any ordering key) onto a partition
// (FNV-1a).
func (p *parallel) partOf(base string) int {
	h := uint32(2166136261)
	for i := 0; i < len(base); i++ {
		h = (h ^ uint32(base[i])) * 16777619
	}
	return int(h % uint32(len(p.parts)))
}

// ruleBases collects the item bases one firing of r can touch: effect
// items, condition reads, guard reads, and computed-value reads.
func ruleBases(r *rule.Rule, out map[string]bool) {
	for _, b := range rule.ExprItems(r.Cond) {
		out[b] = true
	}
	for _, st := range r.Steps {
		if st.Eff.Op.HasItem() {
			out[st.Eff.Item.Base] = true
		}
		for _, b := range rule.ExprItems(st.Cond) {
			out[b] = true
		}
		for _, b := range rule.ExprItems(st.ValExpr) {
			out[b] = true
		}
	}
}

// computeFootprints precomputes, for every item base and rule in the
// spec, the transitive closure of partitions a unit rooted there can
// reach: an event on base b can fire any rule whose LHS names b; each
// firing touches its condition/guard/value bases and writes its effect
// bases, whose events can fire further rules.  The closure runs over the
// whole spec (not just owned rules) — locking a partition we never touch
// costs a little concurrency, never correctness.  Bases outside the spec
// match no rules, so their closure is just their own partition.
func (p *parallel) computeFootprints() {
	spec := p.s.spec
	rulesByBase := map[string][]*rule.Rule{}
	for i := range spec.Rules {
		r := &spec.Rules[i]
		if r.LHS.Op.HasItem() {
			rulesByBase[r.LHS.Item.Base] = append(rulesByBase[r.LHS.Item.Base], r)
		}
	}
	// closure(base) via DFS over trigger bases; memoized per base.
	p.baseFp = make(map[string]partMask, len(rulesByBase))
	var visit func(base string, seen map[string]bool, touched map[string]bool)
	visit = func(base string, seen, touched map[string]bool) {
		if seen[base] {
			return
		}
		seen[base] = true
		touched[base] = true
		for _, r := range rulesByBase[base] {
			rt := map[string]bool{}
			ruleBases(r, rt)
			for b := range rt {
				touched[b] = true
			}
			// Only effect bases generate further events; condition reads
			// do not trigger rules.
			for _, st := range r.Steps {
				if st.Eff.Op.HasItem() {
					visit(st.Eff.Item.Base, seen, touched)
				}
			}
		}
	}
	maskOf := func(bases map[string]bool) partMask {
		var m partMask
		for b := range bases {
			m |= 1 << p.partOf(b)
		}
		return m
	}
	for base := range rulesByBase {
		touched := map[string]bool{base: true}
		visit(base, map[string]bool{}, touched)
		p.baseFp[base] = maskOf(touched)
	}
	// Per-rule footprints for inbound remote firings and delayed
	// dispatches: the rule's own bases plus the closure of its effects.
	p.ruleFp = make(map[string]partMask, len(spec.Rules))
	for i := range spec.Rules {
		r := &spec.Rules[i]
		touched := map[string]bool{}
		ruleBases(r, touched)
		seen := map[string]bool{}
		for _, st := range r.Steps {
			if st.Eff.Op.HasItem() {
				visit(st.Eff.Item.Base, seen, touched)
			}
		}
		if r.LHS.Op.HasItem() {
			touched[r.LHS.Item.Base] = true
		}
		p.ruleFp[r.ID] = maskOf(touched)
	}
}

// baseFootprint returns the closure footprint for an event on base; a
// base no rule names can only ever touch its own partition.
func (p *parallel) baseFootprint(base string) partMask {
	if fp, ok := p.baseFp[base]; ok {
		return fp
	}
	return 1 << p.partOf(base)
}

// ruleFootprint returns the footprint for firing r, falling back to the
// full mask for rules outside the spec (custom or implicit).
func (p *parallel) ruleFootprint(r *rule.Rule) partMask {
	if fp, ok := p.ruleFp[r.ID]; ok {
		return fp
	}
	return p.all
}

func (p *parallel) isWorker(gid uint64) bool {
	p.gidMu.RLock()
	ok := p.workerGIDs[gid]
	p.gidMu.RUnlock()
	return ok
}

// enqueue admits one unit onto a partition queue, applying the shell's
// admission policy per partition.  It reports whether the unit was
// admitted.
func (p *parallel) enqueue(home int, fp partMask, external bool, fn func(*exec)) bool {
	if p.closed.Load() {
		return false
	}
	s := p.s
	pt := p.parts[home]
	gated := external && s.opts.QueueLimit > 0
	pt.mu.Lock()
	for gated && pt.q.n >= s.opts.QueueLimit {
		if s.opts.Admission == AdmitShed {
			pt.mu.Unlock()
			s.m.shed.Inc()
			return false
		}
		if s.opts.Admission != AdmitBlock {
			break // AdmitAll: over-limit work is admitted anyway
		}
		if p.isWorker(curGID()) {
			// A worker generating external work mid-unit (translator echo)
			// must not wait on a queue only workers drain.
			break
		}
		pt.cond.Wait()
		if p.closed.Load() {
			pt.mu.Unlock()
			return false
		}
	}
	p.pendMu.Lock()
	p.pending++
	p.pendMu.Unlock()
	pt.q.push(queuedUnit{fp: fp, fn: fn})
	pt.depth.Set(int64(pt.q.n))
	pt.cond.Broadcast()
	pt.mu.Unlock()
	return true
}

// worker drains one partition's queue, running each unit to completion
// in admission order.
func (p *parallel) worker(i int, ready *sync.WaitGroup) {
	defer p.workerWG.Done()
	p.gidMu.Lock()
	p.workerGIDs[curGID()] = true
	p.gidMu.Unlock()
	ready.Done()
	pt := p.parts[i]
	for {
		pt.mu.Lock()
		for pt.q.n == 0 && !p.closed.Load() {
			pt.cond.Wait()
		}
		qu, ok := pt.q.pop()
		if !ok { // empty and closed: remaining work was drained first
			pt.mu.Unlock()
			return
		}
		pt.depth.Set(int64(pt.q.n))
		pt.cond.Broadcast() // wake AdmitBlock waiters
		pt.mu.Unlock()
		p.runUnit(pt, qu)
	}
}

// runUnit executes one unit under its footprint locks and commits it.
func (p *parallel) runUnit(pt *partition, qu queuedUnit) {
	for i := 0; i < len(p.parts); i++ {
		if qu.fp&(1<<i) != 0 {
			p.parts[i].dataMu.Lock()
		}
	}
	x := pt.eng
	u := &unit{}
	x.unit = u
	qu.fn(x)
	for f := u.cont.pop(); f != nil; f = u.cont.pop() {
		f()
	}
	x.unit = nil
	if len(u.events) > 0 || len(u.sends) > 0 {
		// The commit point: one contiguous seq block, one commit
		// timestamp, sends queued in commit order — all under the trace's
		// commit mutex.
		p.s.tr.AppendUnit(u.events, p.s.clock.Now, func() {
			if len(u.sends) > 0 {
				p.queueSends(u.sends)
			}
		})
	}
	for i := len(p.parts) - 1; i >= 0; i-- {
		if qu.fp&(1<<i) != 0 {
			p.parts[i].dataMu.Unlock()
		}
	}
	p.pendMu.Lock()
	p.pending--
	if p.pending == 0 {
		p.pendCond.Broadcast()
	}
	p.pendMu.Unlock()
}

// queueSends appends a committed unit's sends to the sender queue; called
// under the trace's commit mutex, so queue order is commit order.
func (p *parallel) queueSends(sends []pendingSend) {
	p.sendMu.Lock()
	p.sendQ = append(p.sendQ, sends...)
	p.sendCond.Broadcast()
	p.sendMu.Unlock()
}

// sender performs buffered remote sends in commit order on its own
// goroutine: a blocking Send (TCP backpressure, a peer's AdmitBlock)
// stalls only this goroutine, and every worker keeps committing.
func (p *parallel) sender() {
	defer p.senderWG.Done()
	for {
		p.sendMu.Lock()
		for len(p.sendQ) == 0 && !p.closed.Load() {
			p.sendCond.Wait()
		}
		if len(p.sendQ) == 0 {
			p.sendMu.Unlock()
			return
		}
		batch := p.sendQ
		p.sendQ = nil
		p.sendBusy = true
		p.sendMu.Unlock()
		for _, ps := range batch {
			p.s.sendFire(ps)
		}
		p.sendMu.Lock()
		p.sendBusy = false
		if len(p.sendQ) == 0 {
			p.sendCond.Broadcast()
		}
		p.sendMu.Unlock()
	}
}

// drain blocks until every admitted unit has committed and every buffered
// send has been handed to the transport.
func (p *parallel) drain() {
	p.pendMu.Lock()
	for p.pending > 0 {
		p.pendCond.Wait()
	}
	p.pendMu.Unlock()
	p.sendMu.Lock()
	for len(p.sendQ) > 0 || p.sendBusy {
		p.sendCond.Wait()
	}
	p.sendMu.Unlock()
}

// close drains queued units, then stops workers and the sender.
func (p *parallel) close() {
	p.closed.Store(true)
	for _, pt := range p.parts {
		pt.mu.Lock()
		pt.cond.Broadcast()
		pt.mu.Unlock()
	}
	p.workerWG.Wait()
	p.sendMu.Lock()
	p.sendCond.Broadcast()
	p.sendMu.Unlock()
	p.senderWG.Wait()
}

// execSerial runs fn on the serial engine's post queue.
func (s *Shell) execSerial(external bool, fn func(*exec)) bool {
	return s.enqueue(func() { fn(s.eng) }, external)
}

// execBase routes a unit keyed by item base: admission is FIFO per base
// (the base's home partition queue), and the unit locks the base's
// closure footprint.
func (s *Shell) execBase(base string, external bool, fn func(*exec)) bool {
	if s.par == nil {
		return s.execSerial(external, fn)
	}
	return s.par.enqueue(s.par.partOf(base), s.par.baseFootprint(base), external, fn)
}

// execRuleKey routes a rule-firing unit with an explicit ordering key:
// units sharing a key share a partition queue and therefore commit in
// admission order (per-link for inbound fires, per-rule for delayed
// dispatches).
func (s *Shell) execRuleKey(key string, r *rule.Rule, external bool, fn func(*exec)) bool {
	if s.par == nil {
		return s.execSerial(external, fn)
	}
	return s.par.enqueue(s.par.partOf(key), s.par.ruleFootprint(r), external, fn)
}

// execAll routes a unit that may touch anything — periodic ticks, custom
// message handlers, Do — with the full footprint, giving it the same
// total mutual exclusion the serial queue provides.
func (s *Shell) execAll(external bool, fn func(*exec)) bool {
	if s.par == nil {
		return s.execSerial(external, fn)
	}
	return s.par.enqueue(0, s.par.all, external, fn)
}

// Workers reports the engine's partition count (1 = serial).
func (s *Shell) Workers() int { return s.workers }
