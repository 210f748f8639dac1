package harness

import (
	"fmt"
	"strings"
	"time"

	"cmtk/internal/core"
	"cmtk/internal/obs"
	"cmtk/internal/ris/relstore"
	"cmtk/internal/shell"
	"cmtk/internal/translator"
	"cmtk/internal/transport"
	"cmtk/internal/vclock"
)

// LoadMeshOptions tunes a load-test deployment.  The zero value is a
// real-time in-process bus; set Clock for a deterministic soak (the E15
// chaos experiment).
type LoadMeshOptions struct {
	// Clock drives the deployment; nil means real time.
	Clock vclock.Clock
	// BusLatency is the in-process link latency (default 10ms).
	BusLatency time.Duration
	// Seed drives the Flaky fault layer deterministically.
	Seed int64
	// RetryInterval and MaxBackoff tune the reliable links (defaults
	// 200ms / 1s).
	RetryInterval time.Duration
	MaxBackoff    time.Duration
	// Metrics is the registry everything instrumented lands in; nil means
	// obs.Default.
	Metrics *obs.Registry
	// Keys are the employee keys pre-seeded into both databases (default
	// workload.Keys-style e1..e8).
	Keys []string
}

// LoadMesh is an assembled two-shell payroll deployment built for load
// and chaos runs: branch database at site A with a notify interface,
// HQ replica at site B, the copy constraint between them, reliable links
// over a fault-injectable network, and a per-shell skewable clock.
type LoadMesh struct {
	TK    *core.Toolkit
	Flaky *transport.Flaky
	// Clocks holds each shell's skewable clock ("shell-A", "shell-B"),
	// the injection point for chaos.Skew faults.
	Clocks map[string]*vclock.Skewed
	Reg    *obs.Registry

	dbA, dbB *relstore.DB
	keys     map[string]bool
}

// NewLoadMesh assembles and starts the deployment.  Every key in
// opts.Keys exists in both databases (value 0) before the constraint
// deploys, so a load run is pure UPDATE traffic.
func NewLoadMesh(o LoadMeshOptions) (*LoadMesh, error) {
	if o.BusLatency <= 0 {
		o.BusLatency = 10 * time.Millisecond
	}
	if o.RetryInterval <= 0 {
		o.RetryInterval = 200 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = time.Second
	}
	if o.Metrics == nil {
		o.Metrics = obs.Default
	}
	if len(o.Keys) == 0 {
		o.Keys = []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8"}
	}
	clk := o.Clock
	if clk == nil {
		clk = vclock.Real{}
	}

	dbA := newEmployeesDB("branch")
	dbB := newEmployeesDB("hq")
	keys := map[string]bool{}
	for _, k := range o.Keys {
		if _, err := dbA.Exec(fmt.Sprintf("INSERT INTO employees VALUES ('%s', 0)", k)); err != nil {
			return nil, err
		}
		if _, err := dbB.Exec(fmt.Sprintf("INSERT INTO employees VALUES ('%s', 0)", k)); err != nil {
			return nil, err
		}
		keys[k] = true
	}

	flaky := transport.NewFlaky(transport.NewBus(clk, o.BusLatency), transport.FlakyOptions{
		Clock: clk, Seed: o.Seed, Metrics: o.Metrics,
	})
	network := transport.NewReliable(flaky, transport.ReliableOptions{
		Clock: clk, RetryInterval: o.RetryInterval, MaxBackoff: o.MaxBackoff,
		Seed: o.Seed, Metrics: o.Metrics,
	})

	clocks := map[string]*vclock.Skewed{}
	tk := core.New(core.Config{
		Clock:   clk,
		Network: network,
		ShellOptions: func(name string, opts shell.Options) shell.Options {
			sk := vclock.NewSkewed(clk, 0)
			clocks[name] = sk
			opts.Clock = sk
			opts.Metrics = o.Metrics
			return opts
		},
	})
	m := &LoadMesh{TK: tk, Flaky: flaky, Clocks: clocks, Reg: o.Metrics, dbA: dbA, dbB: dbB, keys: keys}
	if err := tk.AddSite(core.Site{RID: notifyRID("A", "salary1"), Local: &translator.LocalStores{Rel: dbA}}); err != nil {
		return nil, err
	}
	if err := tk.AddSite(core.Site{RID: writableRID("B", "salary2"), Local: &translator.LocalStores{Rel: dbB}}); err != nil {
		return nil, err
	}
	if err := tk.AddCopy(core.CopyConstraint{X: "salary1", Y: "salary2", Arity: 1, Strategy: "notify"}); err != nil {
		return nil, err
	}
	if err := tk.Deploy(); err != nil {
		return nil, err
	}
	if err := tk.Start(); err != nil {
		return nil, err
	}
	return m, nil
}

// Write applies one application update at the branch database — a single
// UPDATE statement, safe to call from concurrent open-loop arrival
// goroutines.  The translator's watch turns it into the Ws event that
// triggers the copy constraint.
func (m *LoadMesh) Write(key string, val int64) error {
	if !m.keys[key] {
		return fmt.Errorf("loadmesh: key %q was not pre-seeded", key)
	}
	_, err := m.dbA.Exec(fmt.Sprintf("UPDATE employees SET salary = %d WHERE empid = '%s'", val, key))
	return err
}

// Replica reads the replica's current value for key at HQ; ok is false
// when the row is missing.
func (m *LoadMesh) Replica(key string) (int64, bool) {
	res, err := m.dbB.Exec(fmt.Sprintf("SELECT salary FROM employees WHERE empid = '%s'", key))
	if err != nil || len(res.Rows) != 1 {
		return 0, false
	}
	return res.Rows[0][0].Int(), true
}

// PropagationDelays reports, per distinct value the branch item took, the
// apparent delay until the replica reflected it, plus how many values
// were never reflected before the trace horizon minus settle.  Delays are
// "apparent": they include any clock skew between the recording shells —
// exactly what the metric guarantee checkers see.
func (m *LoadMesh) PropagationDelays(settle time.Duration) (delays []time.Duration, lost int) {
	return propagationStats(m.TK.Trace(), "salary1", "salary2", settle)
}

// FireLatency returns the aggregated trigger-to-execution latency
// distribution across every shell, parsed from the registry's exposition
// text — the same path a remote scrape uses.
func (m *LoadMesh) FireLatency() (bounds []float64, cumulative []uint64, count uint64, ok bool) {
	var b strings.Builder
	m.Reg.WriteText(&b)
	bounds, cumulative, count, _, ok = obs.ParseHistogram(b.String(), "cmtk_shell_fire_latency_seconds")
	return bounds, cumulative, count, ok
}

// Stop shuts the deployment down.
func (m *LoadMesh) Stop() { m.TK.Stop() }
