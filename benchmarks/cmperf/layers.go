package main

// Isolated drives: each layer's public API is called directly, with inputs
// the traced round captured (the firings the raw endpoint sent, the events
// the trace recorded, the statements the replica ran), so a layer's own
// cost is known apart from the waiting around it on the path.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/durable"
	"cmtk/internal/event"
	"cmtk/internal/guarantee"
	"cmtk/internal/obs"
	"cmtk/internal/ris/relstore"
	"cmtk/internal/rule"
	"cmtk/internal/trace"
	"cmtk/internal/transport"
	"cmtk/internal/wire"
)

// refSink keeps the reference kernel's result alive.
var refSink uint64

// hostRef times a fixed single-thread kernel (an xorshift walk over a
// table that fits the cache).  It measures the machine, not the program:
// when it drifts between runs, so will everything else.
func hostRef() time.Duration {
	var table [1 << 12]uint64
	x := uint64(88172645463325252)
	t0 := time.Now()
	for i := 0; i < 4_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		table[x&(1<<12-1)] += x
	}
	refSink += table[0] + x
	return time.Since(t0)
}

// per divides a duration over n pieces and returns it in the given unit.
func per(d time.Duration, n int, unit time.Duration) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(unit) / float64(n)
}

type nopCloser struct{ *bytes.Buffer }

func (nopCloser) Close() error { return nil }

// driveLayers runs every isolated drive and returns its metrics.  msgs are
// the captured firings; scale shrinks the repetition counts for the smoke
// test.
func driveLayers(seed int64, msgs []transport.Message, outDir string, scale int) (map[string]metric, []string, error) {
	engineGen := newUpdateGen(seed, "layers.engine", engineRules)
	meshGen := newUpdateGen(seed, "layers.mesh", meshKeys)
	out := map[string]metric{}
	var problems []string
	reps := func(n int) int { return max(n/scale, 4) }

	// rule: parsing the engine specification; evaluating its condition.
	specText := engineSpec()
	var sp *rule.Spec
	n := reps(8)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		var err error
		if sp, err = rule.ParseSpecString(specText); err != nil {
			return nil, nil, err
		}
	}
	out["rule.parse_us_per_rule"] = metric{per(time.Since(t0), n*len(sp.Rules), time.Microsecond), "us"}

	cond := sp.Rules[1].Cond // b + 1 > Z0
	items := data.NewInterpretation()
	items.Set(data.Item("Z0"), data.NewInt(7))
	b := event.Bindings{"b": data.NewInt(9)}
	env := rule.MapEnv{Params: b, Items: items}
	n = reps(400_000)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		if ok, err := rule.EvalCondBinding(cond, env, b); err != nil || !ok {
			return nil, nil, fmt.Errorf("rule.eval drive: %v %v", ok, err)
		}
	}
	out["rule.eval_ns"] = metric{per(time.Since(t0), n, time.Nanosecond), "ns"}

	// event: matching a recorded descriptor against a rule's left-hand side.
	lhs := sp.Rules[0].LHS // Ws(X0, b)
	desc := event.Ws(data.Item("X0"), data.NewInt(1), data.NewInt(2))
	scratch := event.Bindings{}
	n = reps(1_000_000)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		clear(scratch)
		if !lhs.MatchInto(desc, scratch) {
			return nil, nil, fmt.Errorf("event.match drive: no match")
		}
	}
	out["event.match_ns"] = metric{per(time.Since(t0), n, time.Nanosecond), "ns"}

	// shell: one Spontaneous update and its cascade, on a fresh engine.
	eng, err := newEngine(specText)
	if err != nil {
		return nil, nil, err
	}
	n = reps(40_000)
	t0 = time.Now()
	eng.drive(engineGen, n, 0, nil)
	out["shell.spontaneous_ns"] = metric{per(time.Since(t0), n, time.Nanosecond), "ns"}
	eng.sh.Stop()

	// trace, write side: single appends, unit appends, what an event pins.
	events := eng.tr.Events()
	clone := func() []*event.Event {
		c := make([]*event.Event, len(events))
		for i, e := range events {
			c[i] = &event.Event{Time: e.Time, Site: e.Site, Desc: e.Desc, Rule: e.Rule}
		}
		return c
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fresh := clone()
	tr := trace.New(eng.tr.Initial())
	t0 = time.Now()
	for _, e := range fresh {
		tr.Append(e)
	}
	out["trace.append_ns"] = metric{per(time.Since(t0), len(fresh), time.Nanosecond), "ns"}
	fresh = nil
	runtime.GC()
	runtime.ReadMemStats(&m1)
	out["trace.retained_bytes_per_event"] = metric{float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / float64(tr.Len()), "B"}

	fresh = clone()
	tru := trace.New(eng.tr.Initial())
	t0 = time.Now()
	for i := 0; i+3 <= len(fresh); i += 3 {
		tru.AppendUnit(fresh[i:i+3], nil, nil)
	}
	out["trace.append_unit_ns"] = metric{per(time.Since(t0), len(fresh)/3*3, time.Nanosecond), "ns"}

	// trace: folding the whole history away.
	horizon := tr.End().Add(time.Hour)
	t0 = time.Now()
	stats := tr.CompactBefore(horizon, 0)
	out["trace.compact_us_per_event"] = metric{per(time.Since(t0), stats.PrunedEvents, time.Microsecond), "us"}
	if stats.PrunedEvents == 0 {
		problems = append(problems, "trace.compact drive pruned nothing")
	}

	// trace, read side, and guarantee: over a recorded mesh trace.
	r := &round{}
	rec, err := recordedTrace(meshGen, reps(1000), r)
	if err != nil {
		return nil, nil, err
	}
	problems = append(problems, r.problems...)
	mtr := rec.tk.Trace()
	nev := mtr.Len()
	n = reps(40)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		if got := len(mtr.Events()); got != nev {
			return nil, nil, fmt.Errorf("trace.Events drive: %d events, want %d", got, nev)
		}
	}
	out["trace.events_snapshot_us"] = metric{per(time.Since(t0), n, time.Microsecond), "us"}

	checker := trace.NewChecker(rec.tk.Rules())
	t0 = time.Now()
	violations := checker.Check(mtr)
	out["trace.check_us_per_event"] = metric{per(time.Since(t0), nev, time.Microsecond), "us"}
	for _, v := range violations {
		problems = append(problems, "layer drive: checker: "+v.String())
	}

	for _, g := range []struct {
		name string
		g    guarantee.Guarantee
	}{
		{"guarantee.follows_us_per_event", guarantee.Follows{X: "salary1", Y: "salary2"}},
		{"guarantee.leads_us_per_event", guarantee.Leads{X: "salary1", Y: "salary2", Settle: 10 * time.Second}},
		{"guarantee.metric_follows_us_per_event", guarantee.MetricFollows{X: "salary1", Y: "salary2", Kappa: 10 * time.Second}},
	} {
		t0 = time.Now()
		rep := g.g.Check(mtr)
		out[g.name] = metric{per(time.Since(t0), nev, time.Microsecond), "us"}
		if !rep.Holds {
			problems = append(problems, fmt.Sprintf("layer drive: %s: %v", rep, rep.Violations))
		}
	}
	mon, err := guarantee.NewMonitor(guarantee.MetricFollows{X: "salary1", Y: "salary2", Kappa: 10 * time.Second})
	if err != nil {
		return nil, nil, err
	}
	t0 = time.Now()
	mon.Advance(mtr)
	out["guarantee.monitor_advance_us_per_event"] = metric{per(time.Since(t0), nev, time.Microsecond), "us"}
	if !guarantee.AllHold(mon.Reports(mtr)) {
		problems = append(problems, "layer drive: monitor verdict does not hold")
	}
	if err := rec.stop(); err != nil {
		return nil, nil, err
	}

	// ris: the replica's statement, run on a database of its own.
	db := relstore.New("drive")
	if err := preload(db); err != nil {
		return nil, nil, err
	}
	n = reps(20_000)
	stmts := make([]string, n)
	for i := range stmts {
		stmts[i], _ = meshGen.sql()
	}
	t0 = time.Now()
	for _, s := range stmts {
		if res, err := db.Exec(s); err != nil || res.Affected != 1 {
			return nil, nil, fmt.Errorf("ris drive: %v", err)
		}
	}
	out["ris.replica_exec_us"] = metric{per(time.Since(t0), n, time.Microsecond), "us"}

	// transport and wire: rendering a firing for the wire, framing it.
	if len(msgs) == 0 {
		return nil, nil, fmt.Errorf("layer drives: no firing was captured")
	}
	n = reps(20_000)
	var wireBytes int
	var frames [][]byte
	t0 = time.Now()
	for i := 0; i < n; i++ {
		m := msgs[i%len(msgs)]
		m.WireReady()
		m.TriggerEvent = nil
		buf, err := json.Marshal(m)
		if err != nil {
			return nil, nil, err
		}
		wireBytes += len(buf)
		if len(frames) < len(msgs) {
			frames = append(frames, buf)
		}
	}
	out["transport.marshal_us_per_msg"] = metric{per(time.Since(t0), n, time.Microsecond), "us"}
	out["transport.wire_bytes_per_msg"] = metric{float64(wireBytes) / float64(n), "B"}

	pipe := &bytes.Buffer{}
	conn := wire.NewConn(nopCloser{pipe})
	t0 = time.Now()
	for i := 0; i < n; i++ {
		req := wire.Message{ID: uint64(i + 1), Type: "shellmsg", F: map[string]string{"m": string(frames[i%len(frames)])}}
		if err := conn.Write(req); err != nil {
			return nil, nil, err
		}
		got, err := conn.Read()
		if err != nil || got.ID != req.ID {
			return nil, nil, fmt.Errorf("wire drive: %v", err)
		}
	}
	out["wire.frame_us_per_msg"] = metric{per(time.Since(t0), n, time.Microsecond), "us"}

	// durable: journaling a firing under each fsync policy, and replaying.
	dir := filepath.Join(outDir, "drive-wal")
	defer os.RemoveAll(dir)
	for _, p := range []struct {
		name   string
		policy durable.SyncPolicy
		n      int
	}{
		{"durable.append_us_never", durable.SyncNever, reps(20_000)},
		{"durable.append_us_interval", durable.SyncInterval, reps(20_000)},
		{"durable.append_us_always", durable.SyncAlways, reps(200)},
	} {
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
		opts := durable.Options{Sync: p.policy, Metrics: obs.NewRegistry()}
		st, err := durable.Open(dir, opts)
		if err != nil {
			return nil, nil, err
		}
		lg, _, err := st.Log("drive")
		if err != nil {
			return nil, nil, err
		}
		t0 = time.Now()
		for i := 0; i < p.n; i++ {
			if err := lg.Append(1, frames[i%len(frames)]); err != nil {
				return nil, nil, err
			}
		}
		out[p.name] = metric{per(time.Since(t0), p.n, time.Microsecond), "us"}
		st.Crash() // leave the records in the log, not folded into a checkpoint
		if err := st.Close(); err != nil {
			return nil, nil, err
		}
		if p.policy != durable.SyncInterval {
			continue
		}
		st, err = durable.Open(dir, opts)
		if err != nil {
			return nil, nil, err
		}
		t0 = time.Now()
		_, recov, err := st.Log("drive")
		if err != nil {
			return nil, nil, err
		}
		out["durable.replay_us_per_record"] = metric{per(time.Since(t0), len(recov.Records), time.Microsecond), "us"}
		if len(recov.Records) != p.n {
			problems = append(problems, fmt.Sprintf("durable drive: replayed %d of %d records", len(recov.Records), p.n))
		}
		if err := st.Close(); err != nil {
			return nil, nil, err
		}
	}
	return out, problems, nil
}
