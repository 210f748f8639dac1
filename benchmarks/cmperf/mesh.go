package main

// The two-shell payroll deployment of Section 4.2 and the generators that
// drive it: a branch database at site A with a notify interface, the
// headquarters replica at site B, the copy constraint salary1 = salary2
// under the notify strategy, and between the shells whatever network the
// workload asks for.

import (
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"cmtk/internal/cmi"
	"cmtk/internal/core"
	"cmtk/internal/durable"
	"cmtk/internal/obs"
	"cmtk/internal/rid"
	"cmtk/internal/ris/relstore"
	"cmtk/internal/translator"
	"cmtk/internal/transport"
	"cmtk/internal/vclock"
)

// opDeadline is how long an update may take to show at the replica before
// it counts as lost.  No wait in the benchmark is longer.  It is generous
// on purpose: on a shared host the hypervisor and an fsync together stall a
// healthy update for a few hundred milliseconds now and then, and a stall is
// a latency, not a loss.
const opDeadline = 2 * time.Second

// meshConfig selects a deployment.
type meshConfig struct {
	clock    vclock.Clock  // nil: real time
	tcp      bool          // loopback TCPNetwork, else the in-process Bus
	busDelay time.Duration // Bus link latency
	reliable bool          // wrap the network in transport.Reliable
	stateDir string        // non-empty: durable.Store journaling shells and Reliable
	tr       *tracer       // non-nil: interpose on every seam
	// wrapRaw decorates the raw network under Reliable; tests use it to
	// lose a message.
	wrapRaw func(transport.Network) transport.Network
}

// mesh is one running deployment.
type mesh struct {
	tk       *core.Toolkit
	dbA, dbB *relstore.DB
	store    *durable.Store
	stateDir string
	table    *opTable
	tr       *tracer
	deploy   time.Duration // Deploy+Start
}

func preload(db *relstore.DB) error {
	if _, err := db.Exec(createEmployees); err != nil {
		return err
	}
	for i := 0; i < meshKeys; i++ {
		if _, err := db.Exec("INSERT INTO employees VALUES ('" + meshKey(i) + "', 0)"); err != nil {
			return err
		}
	}
	return nil
}

// newMesh parses the CM-RIDs, preloads both databases, deploys and starts
// the toolkit, and registers the replica trigger that observes completed
// updates into table.
func newMesh(cfg meshConfig, table *opTable) (*mesh, error) {
	ridA, err := rid.ParseString(ridBranch)
	if err != nil {
		return nil, err
	}
	ridB, err := rid.ParseString(ridReplica)
	if err != nil {
		return nil, err
	}
	m := &mesh{dbA: relstore.New("branch"), dbB: relstore.New("hq"), table: table, tr: cfg.tr, stateDir: cfg.stateDir}
	if err := preload(m.dbA); err != nil {
		return nil, err
	}
	if err := preload(m.dbB); err != nil {
		return nil, err
	}
	if cfg.tr != nil {
		// Registered before Deploy, so it runs ahead of the translator's own
		// trigger: the instant the source database has applied the update.
		if _, err := m.dbA.RegisterTrigger("employees", func(_ relstore.TriggerOp, _ string, _, row relstore.Row) {
			if row != nil {
				cfg.tr.stamp(row[1].Int(), stApplied)
			}
		}); err != nil {
			return nil, err
		}
	}
	if cfg.stateDir != "" {
		if m.store, err = durable.Open(cfg.stateDir, durable.Options{Sync: durable.SyncInterval, SyncEvery: 100 * time.Millisecond}); err != nil {
			return nil, err
		}
	}
	var network transport.Network
	if cfg.tcp {
		network = transport.NewTCPNetwork()
	} else {
		network = transport.NewBus(cfg.clock, cfg.busDelay)
	}
	if cfg.wrapRaw != nil {
		network = cfg.wrapRaw(network)
	}
	if cfg.tr != nil {
		network = &tracedNet{inner: network, tr: cfg.tr, send: stWire, sendRet: stWireRet, recv: stRecvWire, capture: true}
	}
	if cfg.reliable {
		network = transport.NewReliable(network, transport.ReliableOptions{Clock: cfg.clock, Durable: m.store})
	}
	var wrap func(cmi.Interface) cmi.Interface
	if cfg.tr != nil {
		network = &tracedNet{inner: network, tr: cfg.tr, send: stSend, sendRet: -1, recv: stRecv}
		wrap = func(i cmi.Interface) cmi.Interface { return &tracedIface{Interface: i, tr: cfg.tr} }
	}
	began := time.Now()
	m.tk = core.New(core.Config{Clock: cfg.clock, Network: network, Durable: m.store})
	if err := m.tk.AddSite(core.Site{RID: ridA, Local: &translator.LocalStores{Rel: m.dbA}, Wrap: wrap}); err != nil {
		return nil, err
	}
	if err := m.tk.AddSite(core.Site{RID: ridB, Local: &translator.LocalStores{Rel: m.dbB}, Wrap: wrap}); err != nil {
		return nil, err
	}
	if err := m.tk.AddCopy(core.CopyConstraint{X: "salary1", Y: "salary2", Arity: 1, Strategy: "notify"}); err != nil {
		return nil, err
	}
	if err := m.tk.Deploy(); err != nil {
		return nil, err
	}
	if err := m.tk.Start(); err != nil {
		return nil, err
	}
	m.deploy = time.Since(began)
	if _, err := m.dbB.RegisterTrigger("employees", func(_ relstore.TriggerOp, _ string, _, row relstore.Row) {
		if row != nil {
			if cfg.tr != nil {
				cfg.tr.stamp(row[1].Int(), stDone)
			}
			table.observe(row[1].Int())
		}
	}); err != nil {
		return nil, err
	}
	return m, nil
}

// converged reports how many keys hold different values at the two sites.
func (m *mesh) converged() (differing int, err error) {
	a, err := m.dbA.Exec("SELECT empid, salary FROM employees")
	if err != nil {
		return 0, err
	}
	b, err := m.dbB.Exec("SELECT empid, salary FROM employees")
	if err != nil {
		return 0, err
	}
	replica := make(map[string]int64, len(b.Rows))
	for _, r := range b.Rows {
		replica[r[0].Str()] = r[1].Int()
	}
	if len(b.Rows) != len(a.Rows) {
		differing++
	}
	for _, r := range a.Rows {
		if v, ok := replica[r[0].Str()]; !ok || v != r[1].Int() {
			differing++
		}
	}
	return differing, nil
}

// stop shuts the deployment down and removes its state directory.
func (m *mesh) stop() error {
	m.tk.Stop()
	var err error
	if m.store != nil {
		err = m.store.Close()
	}
	if m.stateDir != "" {
		if e := os.RemoveAll(m.stateDir); err == nil {
			err = e
		}
	}
	return err
}

// opTable follows the updates of one round from the generator to the
// replica trigger.  Slot i belongs to the update with value first+i.
type opTable struct {
	first int64
	start []int64 // when the update was due (open loop) or issued (closed loop)
	done  []int64 // when the replica applied it; -1 once it is counted failed
	late  []int64 // how long after start the generator entered Exec

	issued    atomic.Int64
	completed atomic.Int64
	stray     atomic.Int64 // replica values that match no outstanding update
	wake      chan struct{}

	// generator-side state
	oldest   int // first slot not yet known complete or failed
	failed   int
	failures []string
	timer    *time.Timer
}

func newOpTable(capacity int) *opTable {
	t := &opTable{
		first: 1,
		start: make([]int64, capacity),
		done:  make([]int64, capacity),
		late:  make([]int64, capacity),
		wake:  make(chan struct{}, 1),
		timer: time.NewTimer(time.Hour),
	}
	t.timer.Stop()
	return t
}

// reset readies the table for a new round whose first value is first.
func (t *opTable) reset(first int64) {
	n := int(t.issued.Load())
	clear(t.start[:n])
	clear(t.done[:n])
	clear(t.late[:n])
	t.first = first
	t.issued.Store(0)
	t.completed.Store(0)
	t.stray.Store(0)
	t.oldest, t.failed, t.failures = 0, 0, nil
}

// observe is the replica trigger: the value must belong to an outstanding
// update, and to it alone.
func (t *opTable) observe(val int64) {
	i := val - t.first
	if i < 0 || i >= t.issued.Load() || !atomic.CompareAndSwapInt64(&t.done[i], 0, nowNS()) {
		t.stray.Add(1)
		return
	}
	t.completed.Add(1)
	select {
	case t.wake <- struct{}{}:
	default:
	}
}

func (t *opTable) full() bool { return int(t.issued.Load()) >= len(t.start) }

func (t *opTable) outstanding() int {
	return int(t.issued.Load()-t.completed.Load()) - t.failed
}

// fail counts slot i as failed, with the transport and shell counters at
// that instant for the first few.
func (t *opTable) fail(i int, why string) {
	if !atomic.CompareAndSwapInt64(&t.done[i], 0, -1) {
		return // it completed after all
	}
	t.failed++
	if len(t.failures) < 3 {
		t.failures = append(t.failures, fmt.Sprintf("update %d: %s\n%s", t.first+int64(i), why, counterDump()))
	}
}

// counterDump renders the transport and shell counters, the first thing to
// read when an update went missing.
func counterDump() string {
	snap := obs.Default.Snapshot()
	keep := obs.Snapshot{}
	for k, v := range snap {
		if strings.HasPrefix(k, "cmtk_transport_") || strings.HasPrefix(k, "cmtk_shell_") {
			keep[k] = v
		}
	}
	return keep.Format()
}

// expire advances past finished slots and fails every outstanding update
// whose deadline has passed.  It returns the deadline of the oldest update
// still outstanding, or 0 when none is.
func (t *opTable) expire(now int64) int64 {
	issued := int(t.issued.Load())
	for t.oldest < issued {
		if atomic.LoadInt64(&t.done[t.oldest]) != 0 {
			t.oldest++
			continue
		}
		deadline := t.start[t.oldest] + int64(opDeadline)
		if now < deadline {
			return deadline
		}
		t.fail(t.oldest, "not seen at the replica within "+opDeadline.String())
	}
	return 0
}

// await blocks until an update completes or the oldest outstanding one
// misses its deadline, whichever is first.
func (t *opTable) await() {
	now := nowNS()
	deadline := t.expire(now)
	if deadline == 0 {
		return
	}
	t.timer.Reset(time.Duration(deadline - now))
	select {
	case <-t.wake:
		if !t.timer.Stop() {
			<-t.timer.C
		}
	case <-t.timer.C:
	}
}

// settle waits, within the deadline, for every issued update to complete.
func (t *opTable) settle() {
	for t.outstanding() > 0 {
		t.await()
	}
	t.expire(nowNS())
}

// issue sends the next update of the stream into the source database.
func (m *mesh) issue(gen *updateGen, start int64) {
	t := m.table
	stmt, val := gen.sql()
	i := int(val - t.first)
	t.start[i] = start
	t.issued.Store(int64(i + 1))
	entered := nowNS()
	t.late[i] = entered - start
	if m.tr != nil {
		m.tr.set(i, stDue, start)
		m.tr.set(i, stExec, entered)
	}
	if _, err := m.dbA.Exec(stmt); err != nil {
		t.fail(i, "write error: "+err.Error())
	}
}

// mark is the generator's position at a segment boundary.
type mark struct {
	at        int64
	issued    int
	completed int
	steal     int64
}

func (t *opTable) mark() mark {
	return mark{at: nowNS(), issued: int(t.issued.Load()), completed: int(t.completed.Load()), steal: stealTicks()}
}

// closedLoop keeps window updates outstanding until stop reports true: the
// next update is issued only when one completes (or fails its deadline),
// and is timed from the instant it is issued.
func (m *mesh) closedLoop(gen *updateGen, window int, stop func(t *opTable) bool) {
	t := m.table
	for !stop(t) && !t.full() {
		for t.outstanding() >= window {
			t.await()
		}
		m.issue(gen, nowNS())
	}
}

// sleepUntil blocks the calling thread in nanosleep until the instant due.
// time.Sleep will not do: the runtime rounds a sleep shorter than a
// millisecond up to one, which at 2000 updates/s makes every update late
// by about as long as it then takes to propagate.
func sleepUntil(due int64) {
	for {
		d := due - nowNS()
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d)
		syscall.Nanosleep(&ts, nil) // an early return (EINTR) just loops
	}
}

// openLoop issues updates on a fixed schedule, whatever the system does:
// update k is due at begin + k/rate and is timed from that instant.
func (m *mesh) openLoop(gen *updateGen, rate float64, begin, end int64) {
	t := m.table
	step := 1e9 / rate
	for k := 0; !t.full(); k++ {
		due := begin + int64(float64(k)*step)
		if due >= end {
			return
		}
		sleepUntil(due)
		t.expire(nowNS())
		m.issue(gen, due)
	}
}
