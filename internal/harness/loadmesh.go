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

// LoadMeshOptions tunes a load-test deployment (the E15 chaos
// experiment); every field is required.
type LoadMeshOptions struct {
	// Clock drives the deployment.
	Clock vclock.Clock
	// Metrics is the registry everything instrumented lands in.
	Metrics *obs.Registry
	// Keys are the employee keys pre-seeded into both databases.
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
// deploys, so a load run is pure UPDATE traffic.  The links are E15's:
// 100ms bus latency, fault layer and retry jitter seeded with 15, and
// reliable retries every 1s backing off to 4s.
func NewLoadMesh(o LoadMeshOptions) (*LoadMesh, error) {
	clk := o.Clock

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

	const seed = 15
	flaky := transport.NewFlaky(transport.NewBus(clk, 100*time.Millisecond), transport.FlakyOptions{
		Clock: clk, Seed: seed, Metrics: o.Metrics,
	})
	network := transport.NewReliable(flaky, transport.ReliableOptions{
		Clock: clk, RetryInterval: time.Second, MaxBackoff: 4 * time.Second,
		Seed: seed, Metrics: o.Metrics,
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
