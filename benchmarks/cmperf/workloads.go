package main

// The three workloads that run the payroll mesh.  mesh_tcp_sat and
// mesh_durable_paced time updates from the source Exec to the replica
// trigger; verify_trace records a trace once and times passes of the
// checker and the guarantees over it.

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"

	"cmtk/internal/guarantee"
	"cmtk/internal/vclock"
)

// tables are the op table and span table of a run.  They are large and
// zeroed between rounds, so a run keeps one of each and every round of it
// reuses them.
type tables struct {
	table  *opTable
	tracer *tracer
}

// forRound readies the tables for a round whose first update is gen's next.
func (tb *tables) forRound(env *runEnv, gen *updateGen) (*opTable, *tracer) {
	if tb.table == nil {
		tb.table = newOpTable(env.sz.tableCap)
	}
	tb.table.reset(gen.next)
	if !env.traced {
		return tb.table, nil
	}
	if tb.tracer == nil {
		tb.tracer = newTracer(env.sz.tableCap)
	}
	tb.tracer.reset(gen.next)
	return tb.table, tb.tracer
}

func meshSatRound(env *runEnv, gen *updateGen, budget time.Duration) (*round, error) {
	return meshRound(env, gen, budget, meshConfig{tcp: true, reliable: true}, false)
}

func meshPacedRound(env *runEnv, gen *updateGen, budget time.Duration) (*round, error) {
	dir := filepath.Join(env.outDir, fmt.Sprintf("state-%d", env.round))
	return meshRound(env, gen, budget, meshConfig{tcp: true, reliable: true, stateDir: dir}, true)
}

// checkSample runs the Appendix A.2 checker and every guarantee of the
// deployment over what the trace holds so far.
//
// On the real clock the two shells of a deployment stamp their events
// before the shared trace draws the sequence number, so now and then two
// events of different shells carry timestamps in the opposite order of
// their sequence numbers.  The program documents this (shell.record); it is
// counted apart and is not a failure.  Any other violation is.
func checkSample(m *mesh, r *round, name string) {
	tr := m.tk.Trace()
	for _, v := range m.tk.CheckTrace() {
		if v.Property == 1 && v.Seq > 0 {
			if e, p := tr.Find(v.Seq), tr.Find(v.Seq-1); e != nil && p != nil && e.Host != p.Host {
				r.inversions++
				continue
			}
		}
		r.problem("%s: checker: %s", name, v)
	}
	for _, rep := range m.tk.CheckGuarantees() {
		if !rep.Holds {
			r.problem("%s: guarantee %s: %v", name, rep, rep.Violations)
		}
	}
}

// meshRound deploys the mesh, warms it up with a fixed number of updates,
// then measures segments until the budget is spent: a closed loop at the
// configured window, or an open loop at the configured rate.
func meshRound(env *runEnv, gen *updateGen, budget time.Duration, cfg meshConfig, paced bool) (*round, error) {
	r := &round{}
	table, tr := env.tb.forRound(env, gen)
	cfg.tr = tr
	began, steal := time.Now(), stealTicks()
	m, err := newMesh(cfg, table)
	if err != nil {
		return nil, err
	}
	var checking time.Duration
	if env.check {
		// The checker rebuilds the whole state at every generated event, so
		// it reads the trace of the warm-up's first updates, not that of the
		// measured phase, and its time is kept out of the set-up time.
		sample := int64(env.sz.sampleOps)
		m.closedLoop(gen, env.sz.window, func(t *opTable) bool { return t.issued.Load() >= sample })
		table.settle()
		t0 := time.Now()
		checkSample(m, r, env.name)
		checking = time.Since(t0)
	}
	warm := int64(env.sz.meshWarm)
	m.closedLoop(gen, env.sz.window, func(t *opTable) bool { return t.issued.Load() >= warm })
	table.settle()
	r.setup, r.setupSteal, r.deploy = time.Since(began)-checking, stealTicks()-steal, m.deploy

	var mt meter
	mt.begin()
	events := m.tk.Trace().Len()
	marks := []mark{table.mark()}
	begin := marks[0].at
	end := begin + int64(budget)
	seg := int64(env.sz.meshSeg)
	for s := int64(1); marks[len(marks)-1].at < end && !table.full(); s++ {
		segEnd := begin + s*seg
		if paced {
			m.openLoop(gen, env.sz.pacedRate, segEnd-seg, segEnd)
			sleepUntil(segEnd)
		} else {
			m.closedLoop(gen, env.sz.window, func(*opTable) bool { return nowNS() >= segEnd })
		}
		marks = append(marks, table.mark())
	}
	table.settle()
	mt.end(r, env.traced)
	r.events = m.tk.Trace().Len() - events

	first, last := marks[0], marks[len(marks)-1]
	for i := 1; i < len(marks); i++ {
		a, b := marks[i-1], marks[i]
		var lat []int64
		for j := a.issued; j < b.issued; j++ {
			if d := atomic.LoadInt64(&table.done[j]); d > 0 {
				lat = append(lat, d-table.start[j])
			}
			r.late = append(r.late, table.late[j])
		}
		r.lat = append(r.lat, lat...)
		r.segs = append(r.segs, segment{
			ops:   b.completed - a.completed,
			dur:   time.Duration(b.at - a.at),
			p50:   nsQuantile(lat, 0.5),
			steal: b.steal - a.steal,
		})
	}
	r.ops = int(table.completed.Load()) - first.completed
	r.attempted = int(table.issued.Load())
	r.failed += table.failed
	r.problems = append(r.problems, table.failures...)
	if n := table.stray.Load(); n > 0 {
		r.problem("mesh: %d value(s) reached the replica that match no outstanding update", n)
	}
	if differing, err := m.converged(); err != nil {
		r.problem("mesh: reading the databases: %v", err)
	} else if differing > 0 {
		r.problem("mesh: replica differs from the source on %d key(s)", differing)
	}
	if tr != nil {
		r.spans = tr.tileSamples(first.issued, last.issued)
		r.captured = tr.captured
		r.spanRecords = tr.spans(env.name, first.issued, last.issued)
	}
	if err := m.stop(); err != nil {
		r.problem("mesh: shutting down: %v", err)
	}
	return r, nil
}

// recordedTrace deploys the mesh on a virtual clock over the in-process
// bus, applies n updates and lets every one of them propagate.
func recordedTrace(gen *updateGen, n int, r *round) (*mesh, error) {
	clk := vclock.NewVirtual(vclock.Epoch)
	table := newOpTable(n)
	table.reset(gen.next)
	m, err := newMesh(meshConfig{clock: clk, busDelay: 10 * time.Millisecond}, table)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		m.issue(gen, nowNS())
		clk.Advance(100 * time.Millisecond)
	}
	clk.Advance(time.Minute)
	if out := table.outstanding(); out != 0 || table.failed != 0 {
		r.problem("verify_trace: %d of %d updates never reached the replica", out+table.failed, n)
	}
	r.problems = append(r.problems, table.failures...)
	return m, nil
}

// verifyRound records the trace once, then times full passes over it: the
// seven Appendix A.2 properties and every guarantee the strategy declares.
// An op is one recorded event verified; the latency is that of a pass.
func verifyRound(env *runEnv, gen *updateGen, budget time.Duration) (*round, error) {
	r := &round{}
	began, steal := time.Now(), stealTicks()
	m, err := recordedTrace(gen, env.sz.verifyOps, r)
	if err != nil {
		return nil, err
	}
	events := m.tk.Trace().Len()
	if events != 4*env.sz.verifyOps {
		r.problem("verify_trace: %d updates recorded %d events, want %d", env.sz.verifyOps, events, 4*env.sz.verifyOps)
	}
	// Three untimed passes are the warm-up; they belong to the set-up time.
	for i := 0; i < 3; i++ {
		m.tk.CheckTrace()
		m.tk.CheckGuarantees()
	}
	r.setup, r.setupSteal, r.deploy = time.Since(began), stealTicks()-steal, m.deploy

	var mt meter
	mt.begin()
	deadline := time.Now().Add(budget)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		t0, steal := time.Now(), stealTicks()
		violations := m.tk.CheckTrace()
		reports := m.tk.CheckGuarantees()
		dur, stolen := time.Since(t0), stealTicks()-steal
		for _, v := range violations {
			r.problem("verify_trace: checker: %s", v)
		}
		if !guarantee.AllHold(reports) {
			r.problem("verify_trace: a guarantee does not hold: %v", reports)
		}
		r.lat = append(r.lat, int64(dur))
		r.segs = append(r.segs, segment{ops: events, dur: dur, p50: float64(dur), steal: stolen})
		r.ops += events
		r.attempted += events
	}
	mt.end(r, env.traced)
	if err := m.stop(); err != nil {
		r.problem("verify_trace: shutting down: %v", err)
	}
	return r, nil
}
