package harness

import (
	"errors"
	"fmt"
	"time"

	"cmtk/internal/cmi"
	"cmtk/internal/core"
	"cmtk/internal/data"
	"cmtk/internal/demarcation"
	"cmtk/internal/event"
	"cmtk/internal/guarantee"
	"cmtk/internal/rid"
	"cmtk/internal/ris/relstore"
	"cmtk/internal/rule"
	"cmtk/internal/shell"
	"cmtk/internal/strategy"
	"cmtk/internal/trace"
	"cmtk/internal/translator"
	"cmtk/internal/transport"
	"cmtk/internal/vclock"
	"cmtk/internal/workload"
)

// buildPayroll assembles the Section 4.2 two-site deployment.  notify
// selects the notify interface at A (else read-only), strat the strategy,
// keys the polled key set for read-only A.
func buildPayroll(notify bool, strat string, opts strategy.Options) *payroll {
	return buildPayrollWrapped(notify, strat, opts, nil)
}

// buildPayrollWrapped additionally decorates site A's translator (fault
// injection).
func buildPayrollWrapped(notify bool, strat string, opts strategy.Options, wrapA func(cmi.Interface) cmi.Interface) *payroll {
	clk := vclock.NewVirtual(vclock.Epoch)
	dbA := newEmployeesDB("branch")
	dbB := newEmployeesDB("hq")
	var cfgA *rid.Config
	if notify {
		cfgA = notifyRID("A", "salary1")
	} else {
		cfgA = readOnlyRID("A", "salary1")
	}
	cfgB := writableRID("B", "salary2")
	tk := core.New(core.Config{Clock: clk, BusLatency: 100 * time.Millisecond, FireDelay: 50 * time.Millisecond})
	must(tk.AddSite(core.Site{RID: cfgA, Local: &translator.LocalStores{Rel: dbA}, Wrap: wrapA}))
	must(tk.AddSite(core.Site{RID: cfgB, Local: &translator.LocalStores{Rel: dbB}}))
	must(tk.AddCopy(core.CopyConstraint{X: "salary1", Y: "salary2", Arity: 1, Strategy: strat, Options: opts}))
	must(tk.Deploy())
	must(tk.Start())
	return &payroll{tk: tk, clk: clk, dbA: dbA, dbB: dbB, notifyA: notify}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// E1 reproduces Section 4.2.3's notify-interface claim: with Notify at A
// and Write at B, the update-propagation strategy makes guarantees
// (1)–(4) hold, with propagation latency bounded by the rule deltas.
func E1(updates int) Table {
	tbl := Table{
		ID:      "E1",
		Title:   "Notify interface + update propagation: all guarantees hold",
		Ref:     "Sections 3.3.1, 4.2.3",
		Columns: []string{"updates", "keys", "mean gap", "lat mean", "lat p99", "lat max", "lost", "trace", "guarantees"},
	}
	for _, keys := range []int{1, 10, 50} {
		p := buildPayroll(true, "notify", strategy.Options{})
		stream := workload.Stream(workload.Config{
			Seed: 1, Keys: workload.Keys(keys), N: updates, MeanGap: 2 * time.Second, Poisson: true,
		})
		start := p.clk.Now()
		for _, u := range stream {
			p.clk.AdvanceTo(start.Add(u.At))
			p.appWrite(u.Key, u.Value)
		}
		p.clk.Advance(time.Minute)
		delays, lost := propagationStats(p.tk.Trace(), "salary1", "salary2", 30*time.Second)
		violations := p.tk.CheckTrace()
		reports := p.tk.CheckGuarantees()
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprint(updates), fmt.Sprint(keys), "2s(poisson)",
			fmtDur(workload.Mean(delays)), fmtDur(workload.Percentile(delays, 99)), fmtDur(workload.Max(delays)),
			fmt.Sprint(lost),
			fmt.Sprintf("%d violations", len(violations)),
			guaranteeSummary(reports),
		})
		p.tk.Stop()
	}
	tbl.Notes = append(tbl.Notes,
		"expected shape: zero lost values, zero trace violations, all five guarantees hold;",
		"latency ≈ engine FireDelay + bus latency, far below the 5s rule bound")
	return tbl
}

// E2 reproduces the interface change of Section 4.2.3: with only a Read
// interface at A, polling keeps guarantees (1), (3), (4) but loses (2)
// once two updates land in one polling interval; the miss rate grows with
// the period/rate product.
func E2(updates int) Table {
	tbl := Table{
		ID:      "E2",
		Title:   "Read interface + polling: guarantee (2) fails, (1)(3)(4) hold",
		Ref:     "Section 4.2.3",
		Columns: []string{"poll period", "mean gap", "values", "missed", "miss %", "staleness p99", "follows", "strict", "leads"},
	}
	keys := workload.Keys(3)
	var pollKeys []data.Value
	for _, k := range keys {
		pollKeys = append(pollKeys, data.NewString(k))
	}
	for _, period := range []time.Duration{10 * time.Second, 30 * time.Second, 60 * time.Second, 120 * time.Second} {
		p := buildPayroll(false, "poll", strategy.Options{PollPeriod: period, PollKeys: pollKeys})
		stream := workload.Stream(workload.Config{
			Seed: 2, Keys: keys, N: updates, MeanGap: 20 * time.Second, Poisson: true,
		})
		start := p.clk.Now()
		for _, u := range stream {
			p.clk.AdvanceTo(start.Add(u.At))
			p.appWrite(u.Key, u.Value)
		}
		p.clk.Advance(2*period + time.Minute)
		delays, lost := propagationStats(p.tk.Trace(), "salary1", "salary2", 2*period)
		total := lost + len(delays)
		follows := guarantee.Follows{X: "salary1", Y: "salary2"}.Check(p.tk.Trace())
		strict := guarantee.StrictlyFollows{X: "salary1", Y: "salary2"}.Check(p.tk.Trace())
		leads := guarantee.Leads{X: "salary1", Y: "salary2", Settle: 2 * period}.Check(p.tk.Trace())
		tbl.Rows = append(tbl.Rows, []string{
			period.String(), "20s(poisson)", fmt.Sprint(total),
			fmt.Sprint(lost), fmt.Sprintf("%.1f%%", 100*float64(lost)/float64(max(1, total))),
			fmtDur(workload.Percentile(delays, 99)),
			holdsMark(follows.Holds), holdsMark(strict.Holds), holdsMark(leads.Holds),
		})
		p.tk.Stop()
	}
	tbl.Notes = append(tbl.Notes,
		"expected shape: follows/strictly-follows hold at every period; leads fails once",
		"two updates share a polling interval, and the miss rate rises with the period")
	return tbl
}

// E3 is the footnote-3 ablation: cached propagation suppresses duplicate
// values that a chatty source re-notifies, cutting write-request traffic
// by roughly the duplicate fraction; guarantees unchanged.  A kvstore
// plays the chatty source: unlike the relational engine, it notifies even
// for same-value writes.
func E3(updates int) Table {
	tbl := Table{
		ID:      "E3",
		Title:   "Cached vs naive propagation under duplicate notifications",
		Ref:     "Section 3.2 footnote 3",
		Columns: []string{"dup fraction", "strategy", "notifications", "write reqs", "saved", "guarantees"},
	}
	for _, dup := range []float64{0, 0.25, 0.5, 0.75} {
		counts := map[string]int{}
		var naiveWR int
		for _, strat := range []string{"notify", "cached"} {
			tk, clk, kv := buildKVPayroll(strat)
			stream := workload.Stream(workload.Config{
				Seed: 3, Keys: workload.Keys(5), N: updates, MeanGap: time.Second, DupFraction: dup,
			})
			start := clk.Now()
			for _, u := range stream {
				clk.AdvanceTo(start.Add(u.At))
				kv.Set(u.Key, "phone", fmt.Sprint(u.Value))
			}
			clk.Advance(time.Minute)
			wr := countMatching(tk.Trace(), "WR(salary2(n), b)")
			counts[strat] = wr
			reports := tk.CheckGuarantees()
			if strat == "notify" {
				naiveWR = wr
			}
			saved := ""
			if strat == "cached" && naiveWR > 0 {
				saved = fmt.Sprintf("%.1f%%", 100*float64(naiveWR-wr)/float64(naiveWR))
			}
			tbl.Rows = append(tbl.Rows, []string{
				fmt.Sprintf("%.2f", dup), strat,
				fmt.Sprint(countMatching(tk.Trace(), "N(phone1(n), b)")),
				fmt.Sprint(wr), saved,
				guaranteeSummary(reports),
			})
			tk.Stop()
		}
		_ = counts
	}
	tbl.Notes = append(tbl.Notes,
		"expected shape: cached write requests ≈ naive × (1 − dup fraction); guarantees identical")
	return tbl
}

// buildKVPayroll: kvstore (chatty notify) at A, relstore at B.
func buildKVPayroll(strat string) (*core.Toolkit, *vclock.Virtual, *kvStoreHandle) {
	clk := vclock.NewVirtual(vclock.Epoch)
	kv := newKV()
	cfgA, err := rid.ParseString(`
kind kvstore
site A
item phone1
  type string
  attr phone
interface Ws(phone1(n), b) ->2s N(phone1(n), b)
`)
	must(err)
	cfgB, err := rid.ParseString(`
kind relstore
site B
item salary2
  type string
  read   SELECT salary FROM employees WHERE empid = $n
  write  UPDATE employees SET salary = $b WHERE empid = $n
  insert INSERT INTO employees (empid, salary) VALUES ($n, $b)
  delete DELETE FROM employees WHERE empid = $n
  list   SELECT empid FROM employees
interface WR(salary2(n), b) ->3s W(salary2(n), b)
`)
	must(err)
	// The replica column is TEXT for string phone values.
	dbB2 := relstoreWithTextSalary()
	tk := core.New(core.Config{Clock: clk, BusLatency: 100 * time.Millisecond, FireDelay: 50 * time.Millisecond})
	must(tk.AddSite(core.Site{RID: cfgA, Local: &translator.LocalStores{KV: kv.s}}))
	must(tk.AddSite(core.Site{RID: cfgB, Local: &translator.LocalStores{Rel: dbB2}}))
	must(tk.AddCopy(core.CopyConstraint{X: "phone1", Y: "salary2", Arity: 1, Strategy: strat}))
	must(tk.Deploy())
	must(tk.Start())
	return tk, clk, kv
}

// E4 reproduces Section 6.1: the Demarcation Protocol keeps X ≤ Y valid
// at every instant while updates within the local limit need no remote
// communication.  The slack budget and grant policy control the
// local-operation fraction.
func E4(updates int) Table {
	tbl := Table{
		ID:      "E4",
		Title:   "Demarcation Protocol: X ≤ Y always, local ops within slack",
		Ref:     "Section 6.1",
		Columns: []string{"slack", "policy", "updates", "local %", "remote asks", "denied", "X<=Y"},
	}
	policies := []struct {
		name string
		p    demarcation.Policy
	}{{"exact", demarcation.Exact}, {"generous", demarcation.Generous}}
	for _, slack := range []int64{1, 10, 100, 1000} {
		for _, pol := range policies {
			clk := vclock.NewVirtual(vclock.Epoch)
			tr := trace.New(nil)
			xa, ya := buildDemarcationPair(clk, tr, pol.p, 0, slack, slack, 100000)
			for i := 0; i < updates; i++ {
				xa.Update(1, nil)
				clk.Advance(500 * time.Millisecond)
			}
			clk.Advance(10 * time.Second)
			st := xa.Stats()
			inv := demarcation.Guarantee("X", "Y").Check(tr)
			_ = ya
			tbl.Rows = append(tbl.Rows, []string{
				fmt.Sprint(slack), pol.name, fmt.Sprint(updates),
				fmt.Sprintf("%.1f%%", 100*float64(st.LocalOps)/float64(updates)),
				fmt.Sprint(st.RemoteAsks), fmt.Sprint(st.Denied),
				holdsMark(inv.Holds),
			})
		}
	}
	tbl.Notes = append(tbl.Notes,
		"expected shape: the invariant holds in every row; the local-op fraction grows with",
		"slack, and the generous policy needs fewer remote asks than exact at equal slack")
	return tbl
}

// buildDemarcationPair wires two shells with demarcation agents.
func buildDemarcationPair(clk *vclock.Virtual, tr *trace.Trace, policy demarcation.Policy, x, lx, ly, y int64) (*demarcation.Agent, *demarcation.Agent) {
	spec, err := rule.ParseSpecString(`
site SX
site SY
item X @ SX
item Y @ SY
private Vx @ SX
private Lx @ SX
private Vy @ SY
private Ly @ SY
`)
	must(err)
	bus := transport.NewBus(clk, 100*time.Millisecond)
	opts := shell.Options{Clock: clk, Trace: tr}
	sx := shell.New("sx", spec, opts)
	sx.AddSite("SX", nil)
	sx.Route("SY", "sy")
	sy := shell.New("sy", spec, opts)
	sy.AddSite("SY", nil)
	sy.Route("SX", "sx")
	must(sx.Attach(bus))
	must(sy.Attach(bus))
	must(sx.Start())
	must(sy.Start())
	xa := demarcation.NewAgent(sx, "SX", "sy", data.Item("X"), data.Item("Vx"), data.Item("Lx"), true, policy)
	ya := demarcation.NewAgent(sy, "SY", "sx", data.Item("Y"), data.Item("Vy"), data.Item("Ly"), false, policy)
	xa.Init(x, lx)
	ya.Init(y, ly)
	clk.Advance(time.Second)
	return xa, ya
}

// E5 reproduces Section 6.2: the end-of-day sweep bounds every
// referential violation window by the sweep period.
func E5(days int) Table {
	tbl := Table{
		ID:      "E5",
		Title:   "Referential integrity via end-of-day sweep",
		Ref:     "Section 6.2",
		Columns: []string{"days", "inserts", "orphans", "deleted", "max window", "guarantee"},
	}
	clk := vclock.NewVirtual(vclock.Epoch)
	tr := trace.New(nil)
	projDB := relstore.New("projects")
	must2(projDB.Exec("CREATE TABLE projects (empid TEXT, proj TEXT, PRIMARY KEY (empid))"))
	salDB := relstore.New("salaries")
	must2(salDB.Exec("CREATE TABLE salaries (empid TEXT, amount INT, PRIMARY KEY (empid))"))
	projCfg, err := rid.ParseString(`
kind relstore
site P
item project
  type string
  read   SELECT proj FROM projects WHERE empid = $n
  write  UPDATE projects SET proj = $b WHERE empid = $n
  insert INSERT INTO projects (empid, proj) VALUES ($n, $b)
  delete DELETE FROM projects WHERE empid = $n
  list   SELECT empid FROM projects
`)
	must(err)
	salCfg, err := rid.ParseString(`
kind relstore
site S
item salary
  type int
  read   SELECT amount FROM salaries WHERE empid = $n
  list   SELECT empid FROM salaries
`)
	must(err)
	projT, err := translator.NewRel(projCfg, projDB, clk)
	must(err)
	salT, err := translator.NewRel(salCfg, salDB, clk)
	must(err)
	spec, err := rule.ParseSpecString("site P\nsite S\nitem project @ P\nitem salary @ S\n")
	must(err)
	sh := shell.New("p", spec, shell.Options{Clock: clk, Trace: tr})
	sh.AddSite("P", projT)
	must(sh.Start())
	day := 24 * time.Hour
	sw := strategy.NewSweeper(sh, clk, day, projT, "project", salT, "salary")
	sw.Start()

	inserts := 0
	id := 0
	for d := 0; d < days; d++ {
		// Three hires per day: two with salary records, one orphan.
		for j := 0; j < 3; j++ {
			id++
			inserts++
			key := fmt.Sprintf("e%d", id)
			if j < 2 {
				must2(salDB.Exec(fmt.Sprintf("INSERT INTO salaries VALUES ('%s', %d)", key, 100+id)))
				sh.Spontaneous(data.Item("salary", data.NewString(key)), data.NullValue, data.NewInt(int64(100+id)))
			}
			must2(projDB.Exec(fmt.Sprintf("INSERT INTO projects VALUES ('%s', 'proj%d')", key, id)))
			sh.Spontaneous(data.Item("project", data.NewString(key)), data.NullValue, data.NewString(fmt.Sprintf("proj%d", id)))
			clk.Advance(2 * time.Hour)
		}
		clk.Advance(18 * time.Hour)
	}
	clk.Advance(2 * day)
	sweeps, orphaned, deleted := sw.Stats()
	_ = sweeps
	rep := sw.Guarantee(2 * time.Hour).Check(tr)
	maxWindow := maxViolationWindow(tr, "project", "salary")
	tbl.Rows = append(tbl.Rows, []string{
		fmt.Sprint(days), fmt.Sprint(inserts), fmt.Sprint(orphaned), fmt.Sprint(deleted),
		fmtDur(maxWindow), holdsMark(rep.Holds),
	})
	sw.Stop()
	sh.Stop()
	tbl.Notes = append(tbl.Notes,
		"expected shape: every violation window is below the 24h sweep period, so the",
		"weakened guarantee E(project(i)) => E(salary(i)) within 24h holds")
	return tbl
}

func must2(_ any, err error) { must(err) }

// maxViolationWindow measures the longest interval during which some
// project(i) existed without salary(i).
func maxViolationWindow(tr *trace.Trace, refBase, tgtBase string) time.Duration {
	keys := map[string][]data.Value{}
	for _, e := range tr.Events() {
		if e.Desc.Op.HasItem() && e.Desc.Item.Base == refBase {
			keys[e.Desc.Item.Key()] = e.Desc.Item.Args
		}
	}
	var maxW time.Duration
	for _, args := range keys {
		ref := data.ItemName{Base: refBase, Args: args}
		tgt := data.ItemName{Base: tgtBase, Args: args}
		var start time.Time
		inViol := false
		consider := func(at time.Time, in data.Interpretation) {
			bad := in.Has(ref) && !in.Has(tgt)
			if bad && !inViol {
				inViol, start = true, at
			} else if !bad && inViol {
				inViol = false
				if w := at.Sub(start); w > maxW {
					maxW = w
				}
			}
		}
		consider(time.Time{}, tr.Initial())
		tr.WalkNewStates(func(e *event.Event, in data.Interpretation) bool {
			consider(e.Time, in)
			return true
		})
		if inViol {
			if w := tr.End().Sub(start); w > maxW {
				maxW = w
			}
		}
	}
	return maxW
}

// E6 reproduces Section 6.3: when the CM can update neither copy, the
// monitor strategy maintains Flag/Tb so applications can still determine
// when the constraint held.
func E6(cycles int) Table {
	tbl := Table{
		ID:      "E6",
		Title:   "Monitoring X = Y via auxiliary Flag/Tb",
		Ref:     "Section 6.3",
		Columns: []string{"cycles", "events", "flag-true %", "monitor guarantee", "trace"},
	}
	clk := vclock.NewVirtual(vclock.Epoch)
	tr := trace.New(nil)
	spec, err := rule.ParseSpecString(`
site M
item X @ M
item Y @ M
rule nx: Ws(X, b) ->1s N(X, b)
rule ny: Ws(Y, b) ->1s N(Y, b)
`)
	must(err)
	ch, err := strategy.Monitor(strategy.Copy{X: "X", Y: "Y"}, "M", strategy.Options{Delta: 2 * time.Second, Bound: 10 * time.Second})
	must(err)
	must(strategy.Merge(spec, ch))
	sh := shell.New("m", spec, shell.Options{Clock: clk, Trace: tr})
	sh.AddSite("M", nil)
	must(sh.Start())

	x, y := data.Item("X"), data.Item("Y")
	cur := int64(0)
	flagTrue := time.Duration(0)
	var lastCheck time.Time = clk.Now()
	sample := func() {
		now := clk.Now()
		if v, ok := sh.ReadAux(data.Item("Flag_XY")); ok && v.Truthy() {
			flagTrue += now.Sub(lastCheck)
		}
		lastCheck = now
	}
	for c := 0; c < cycles; c++ {
		// Diverge: X moves ahead.
		old := cur
		cur++
		sh.Spontaneous(x, data.NewInt(old), data.NewInt(cur))
		clk.Advance(50 * time.Second)
		sample()
		// Converge: Y catches up.
		sh.Spontaneous(y, data.NewInt(old), data.NewInt(cur))
		clk.Advance(50 * time.Second)
		sample()
	}
	total := clk.Now().Sub(vclock.Epoch)
	rep := ch.Guarantees[0].Check(tr)
	checker := trace.NewChecker(append(spec.Rules, sh.ImplicitRules()...))
	violations := checker.Check(tr)
	tbl.Rows = append(tbl.Rows, []string{
		fmt.Sprint(cycles), fmt.Sprint(tr.Len()),
		fmt.Sprintf("%.1f%%", 100*float64(flagTrue)/float64(total)),
		holdsMark(rep.Holds),
		fmt.Sprintf("%d violations", len(violations)),
	})
	sh.Stop()
	tbl.Notes = append(tbl.Notes,
		"expected shape: Flag is true roughly half the time (the converged halves of each",
		"cycle) and the monitor guarantee holds over the whole trace")
	return tbl
}

// E7 reproduces Section 6.4: with an overnight no-update window and an
// end-of-day batch, the copies are equal every day from 17:15 to 08:00 —
// and, as a control, NOT equal over business hours.
func E7(days int) Table {
	tbl := Table{
		ID:      "E7",
		Title:   "Periodic guarantee: end-of-day balance propagation",
		Ref:     "Section 6.4",
		Columns: []string{"days", "accounts", "batches", "copied", "night guarantee", "daytime control"},
	}
	clk := vclock.NewVirtual(vclock.Epoch)
	tr := trace.New(nil)
	srcDB := relstore.New("branch")
	must2(srcDB.Exec("CREATE TABLE accts (id TEXT, bal INT, PRIMARY KEY (id))"))
	dstDB := relstore.New("hq")
	must2(dstDB.Exec("CREATE TABLE accts (id TEXT, bal INT, PRIMARY KEY (id))"))
	srcCfg, err := rid.ParseString(`
kind relstore
site BR
item bal1
  type int
  read   SELECT bal FROM accts WHERE id = $n
  list   SELECT id FROM accts
`)
	must(err)
	dstCfg, err := rid.ParseString(`
kind relstore
site HQ
item bal2
  type int
  read   SELECT bal FROM accts WHERE id = $n
  write  UPDATE accts SET bal = $b WHERE id = $n
  insert INSERT INTO accts (id, bal) VALUES ($n, $b)
  delete DELETE FROM accts WHERE id = $n
  list   SELECT id FROM accts
`)
	must(err)
	srcT, err := translator.NewRel(srcCfg, srcDB, clk)
	must(err)
	dstT, err := translator.NewRel(dstCfg, dstDB, clk)
	must(err)
	spec, err := rule.ParseSpecString("site BR\nsite HQ\nitem bal1 @ BR\nitem bal2 @ HQ\n")
	must(err)
	sh := shell.New("hq", spec, shell.Options{Clock: clk, Trace: tr})
	sh.AddSite("HQ", dstT)
	must(sh.Start())
	b := strategy.NewBatcher(sh, clk, 17*time.Hour, srcT, "bal1", "bal2")
	b.Start()

	accounts := workload.Keys(4)
	bals := map[string]int64{}
	appWrite := func(id string, bal int64) {
		var old data.Value
		if prev, ok := bals[id]; ok {
			old = data.NewInt(prev)
			srcDB.Exec(fmt.Sprintf("UPDATE accts SET bal = %d WHERE id = '%s'", bal, id))
		} else {
			srcDB.Exec(fmt.Sprintf("INSERT INTO accts VALUES ('%s', %d)", id, bal))
		}
		bals[id] = bal
		sh.Spontaneous(data.Item("bal1", data.NewString(id)), old, data.NewInt(bal))
	}
	for d := 0; d < days; d++ {
		// Business hours 9:00–17:00: one update per account at 10:00, 14:00.
		clk.AdvanceTo(vclock.Epoch.Add(time.Duration(d)*24*time.Hour + 10*time.Hour))
		for i, a := range accounts {
			appWrite(a, int64(1000*d+100+i))
		}
		clk.Advance(4 * time.Hour)
		for i, a := range accounts {
			appWrite(a, int64(1000*d+200+i))
		}
		// The 17:00 batch and the overnight window happen on their own.
		clk.AdvanceTo(vclock.Epoch.Add(time.Duration(d+1) * 24 * time.Hour))
	}
	clk.Advance(9 * time.Hour)
	runs, copied := b.Stats()
	night := b.Guarantee(17*time.Hour+15*time.Minute, 8*time.Hour).Check(tr)
	daytime := strategy.PeriodicFamily{Src: "bal1", Dst: "bal2", From: 9 * time.Hour, To: 17 * time.Hour}.Check(tr)
	tbl.Rows = append(tbl.Rows, []string{
		fmt.Sprint(days), fmt.Sprint(len(accounts)), fmt.Sprint(runs), fmt.Sprint(copied),
		holdsMark(night.Holds), holdsMark(daytime.Holds),
	})
	b.Stop()
	sh.Stop()
	tbl.Notes = append(tbl.Notes,
		"expected shape: the 17:15–08:00 guarantee holds every day; the business-hours",
		"control fails, because balances diverge between batches")
	return tbl
}

// E8 reproduces Section 5: a metric failure invalidates metric guarantees
// while non-metric ones survive; a logical failure invalidates both; and
// a link slower than the rule bound shows up as metric trace violations.
func E8() Table {
	tbl := Table{
		ID:      "E8",
		Title:   "Failure handling: metric vs logical degradation",
		Ref:     "Section 5",
		Columns: []string{"scenario", "metric valid", "non-metric valid", "trace metric viol", "trace logical viol", "replica converged"},
	}
	var faultA *translator.Faulty
	wrap := func(iface cmi.Interface) cmi.Interface {
		faultA = translator.NewFaulty(iface, nil)
		return faultA
	}
	run := func(scenario string, inject func(p *payroll)) {
		p := buildPayrollWrapped(true, "notify", strategy.Options{}, wrap)
		p.appWrite("e1", 100)
		p.clk.Advance(5 * time.Second)
		inject(p)
		p.clk.Advance(5 * time.Second)
		p.appWrite("e1", 200)
		p.clk.Advance(time.Minute)
		metOK, metAll, nonOK, nonAll := 0, 0, 0, 0
		for _, st := range p.tk.Status() {
			if st.Metric {
				metAll++
				if st.Valid {
					metOK++
				}
			} else {
				nonAll++
				if st.Valid {
					nonOK++
				}
			}
		}
		vs := p.tk.CheckTrace()
		mv, lv := 0, 0
		for _, v := range vs {
			if v.Metric {
				mv++
			} else {
				lv++
			}
		}
		res, _ := p.dbB.Exec("SELECT salary FROM employees WHERE empid = 'e1'")
		converged := len(res.Rows) == 1 && res.Rows[0][0].Equal(data.NewInt(200))
		tbl.Rows = append(tbl.Rows, []string{
			scenario,
			fmt.Sprintf("%d/%d", metOK, metAll),
			fmt.Sprintf("%d/%d", nonOK, nonAll),
			fmt.Sprint(mv), fmt.Sprint(lv),
			fmt.Sprint(converged),
		})
		p.tk.Stop()
	}
	run("no failure", func(p *payroll) {})
	run("metric failure at A", func(p *payroll) {
		sh, _ := p.tk.Shell("shell-A")
		sh.ReportMetricFailure("A", "notify", errors.New("simulated overload"))
	})
	run("logical failure at A", func(p *payroll) {
		sh, _ := p.tk.Shell("shell-A")
		sh.ReportLogicalFailure("A", "notify", errors.New("simulated catastrophic failure"))
	})
	// The same degradation through the real detection path: an overloaded
	// translator raises metric failures on every late notification.
	run("overloaded translator at A", func(p *payroll) {
		faultA.SetMode(translator.Slow)
	})
	// A recoverable crash: notifications buffered during the outage are
	// replayed on recovery, so the replica converges and only metric
	// failures are recorded (the Section 5 crash→metric mapping).
	run("crash+recovery at A", func(p *payroll) {
		faultA.SetMode(translator.Crashed)
		p.appWrite("e9", 900) // update during the outage
		p.clk.Advance(2 * time.Second)
		faultA.SetMode(translator.Healthy)
	})
	tbl.Notes = append(tbl.Notes,
		"expected shape: metric failure invalidates only the metric guarantees;",
		"logical failure invalidates all guarantees involving the failed site")
	return tbl
}

// E9 reproduces the Section 4.3 retargeting claim: moving the same
// deployment from a Sybase-style schema to an Oracle-style schema touches
// only the CM-RID, and the guarantee outcomes are identical.
func E9(updates int) Table {
	tbl := Table{
		ID:      "E9",
		Title:   "CM-RID retargeting: Sybase-style vs Oracle-style schema",
		Ref:     "Sections 4.2.1, 4.3",
		Columns: []string{"dialect", "rid lines", "lines changed", "updates", "lost", "trace", "guarantees"},
	}
	sybase := writableRID("B", "salary2")
	oracleText := `
kind relstore
site B
item salary2
  type int
  read   SELECT sal FROM staff WHERE id = $n
  write  UPDATE staff SET sal = $b WHERE id = $n
  insert INSERT INTO staff (id, sal) VALUES ($n, $b)
  delete DELETE FROM staff WHERE id = $n
  list   SELECT id FROM staff
  watch  staff
  keycol id
  valcol sal
interface WR(salary2(n), b) ->3s W(salary2(n), b)
`
	oracle, err := rid.ParseString(oracleText)
	must(err)
	diff := ridDiffLines(sybase.String(), oracle.String())
	for _, d := range []struct {
		name string
		cfg  *rid.Config
		mk   func() *relstore.DB
	}{
		{"sybase-style", sybase, func() *relstore.DB { return newEmployeesDB("hq") }},
		{"oracle-style", oracle, func() *relstore.DB {
			db := relstore.New("hq")
			must2(db.Exec("CREATE TABLE staff (id TEXT, sal INT, PRIMARY KEY (id))"))
			return db
		}},
	} {
		clk := vclock.NewVirtual(vclock.Epoch)
		dbA := newEmployeesDB("branch")
		dbB := d.mk()
		tk := core.New(core.Config{Clock: clk, BusLatency: 100 * time.Millisecond})
		must(tk.AddSite(core.Site{RID: notifyRID("A", "salary1"), Local: &translator.LocalStores{Rel: dbA}}))
		must(tk.AddSite(core.Site{RID: d.cfg, Local: &translator.LocalStores{Rel: dbB}}))
		must(tk.AddCopy(core.CopyConstraint{X: "salary1", Y: "salary2", Arity: 1, Strategy: "notify"}))
		must(tk.Deploy())
		must(tk.Start())
		p := &payroll{tk: tk, clk: clk, dbA: dbA, dbB: dbB, notifyA: true}
		stream := workload.Stream(workload.Config{Seed: 9, Keys: workload.Keys(5), N: updates, MeanGap: time.Second})
		start := clk.Now()
		for _, u := range stream {
			clk.AdvanceTo(start.Add(u.At))
			p.appWrite(u.Key, u.Value)
		}
		clk.Advance(time.Minute)
		_, lost := propagationStats(tk.Trace(), "salary1", "salary2", 30*time.Second)
		vs := tk.CheckTrace()
		tbl.Rows = append(tbl.Rows, []string{
			d.name, fmt.Sprint(lineCount(d.cfg.String())), fmt.Sprint(diff),
			fmt.Sprint(updates), fmt.Sprint(lost),
			fmt.Sprintf("%d violations", len(vs)),
			guaranteeSummary(tk.CheckGuarantees()),
		})
		tk.Stop()
	}
	tbl.Notes = append(tbl.Notes,
		"expected shape: identical guarantee outcomes; the retarget touches only the RID",
		"(well under the paper's 'less than a page' of changes) and zero lines of Go")
	return tbl
}

func lineCount(s string) int {
	n := 0
	for _, line := range splitLines(s) {
		if line != "" {
			n++
		}
	}
	return n
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// ridDiffLines counts lines present in one RID but not the other.
func ridDiffLines(a, b string) int {
	aset := map[string]bool{}
	for _, l := range splitLines(a) {
		aset[l] = true
	}
	n := 0
	for _, l := range splitLines(b) {
		if l != "" && !aset[l] {
			n++
		}
	}
	return n
}

// E10 reproduces the Section 4.2.3 remark that verifying the propagation
// guarantees "discovered ... a requirement for in-order message
// processing": the same deployment run over a FIFO transport and over a
// pair-swapping transport.  Out-of-order delivery breaks guarantee (3)
// and is caught by the Appendix A.2 property-7 check.
func E10(updates int) Table {
	tbl := Table{
		ID:      "E10",
		Title:   "In-order delivery ablation: FIFO vs scrambled links",
		Ref:     "Section 4.2.3, Appendix A.2 property 7",
		Columns: []string{"transport", "updates", "follows", "strict order", "prop-7 violations", "final value correct"},
	}
	for _, scrambled := range []bool{false, true} {
		clk := vclock.NewVirtual(vclock.Epoch)
		dbA := newEmployeesDB("branch")
		dbB := newEmployeesDB("hq")
		var network transport.Network = transport.NewBus(clk, 100*time.Millisecond)
		name := "fifo"
		if scrambled {
			network = transport.NewScrambled(network)
			name = "scrambled"
		}
		tk := core.New(core.Config{Clock: clk, Network: network})
		must(tk.AddSite(core.Site{RID: notifyRID("A", "salary1"), Local: &translator.LocalStores{Rel: dbA}}))
		must(tk.AddSite(core.Site{RID: writableRID("B", "salary2"), Local: &translator.LocalStores{Rel: dbB}}))
		must(tk.AddCopy(core.CopyConstraint{X: "salary1", Y: "salary2", Arity: 1, Strategy: "notify"}))
		must(tk.Deploy())
		must(tk.Start())
		p := &payroll{tk: tk, clk: clk, dbA: dbA, dbB: dbB, notifyA: true}
		final := int64(0)
		for i := 0; i < updates; i++ {
			final = int64(1000 + i)
			p.appWrite("e1", final)
			clk.Advance(time.Second)
		}
		clk.Advance(time.Minute)
		follows := guarantee.Follows{X: "salary1", Y: "salary2"}.Check(tk.Trace())
		strict := guarantee.StrictlyFollows{X: "salary1", Y: "salary2"}.Check(tk.Trace())
		prop7 := 0
		for _, v := range tk.CheckTrace() {
			if v.Property == 7 {
				prop7++
			}
		}
		res, _ := dbB.Exec("SELECT salary FROM employees WHERE empid = 'e1'")
		finalOK := len(res.Rows) == 1 && res.Rows[0][0].Equal(data.NewInt(final))
		tbl.Rows = append(tbl.Rows, []string{
			name, fmt.Sprint(updates),
			holdsMark(follows.Holds), holdsMark(strict.Holds),
			fmt.Sprint(prop7), fmt.Sprint(finalOK),
		})
		tk.Stop()
	}
	tbl.Rows = append(tbl.Rows, e10TCPBatch(updates))
	tbl.Notes = append(tbl.Notes,
		"expected shape: FIFO keeps strict order with zero property-7 violations; the",
		"scrambled link breaks guarantee (3), is flagged by property 7, and can leave the",
		"replica on a stale final value — the in-order requirement the paper's proofs found;",
		"tcp-batch shows the send-side batching TCP mesh preserves per-link FIFO, so the",
		"same property-7 check stays clean over coalesced wire frames")
	return tbl
}

// e10TCPBatch runs the E10 deployment over the real-socket mesh, whose
// sender coalesces queued messages into batched frames: the property-7
// check confirms batching preserves per-link FIFO delivery.  Runs on the
// real clock, like F2.
func e10TCPBatch(updates int) []string {
	dbA := newEmployeesDB("branch")
	dbB := newEmployeesDB("hq")
	tk := core.New(core.Config{Clock: vclock.Real{}, Network: transport.NewTCPNetwork()})
	must(tk.AddSite(core.Site{RID: notifyRID("A", "salary1"), Local: &translator.LocalStores{Rel: dbA}}))
	must(tk.AddSite(core.Site{RID: writableRID("B", "salary2"), Local: &translator.LocalStores{Rel: dbB}}))
	must(tk.AddCopy(core.CopyConstraint{X: "salary1", Y: "salary2", Arity: 1, Strategy: "notify"}))
	must(tk.Deploy())
	must(tk.Start())
	p := &payroll{tk: tk, dbA: dbA, dbB: dbB, notifyA: true}
	final := int64(0)
	for i := 0; i < updates; i++ {
		final = int64(1000 + i)
		p.appWrite("e1", final)
	}
	// Wait for the last value to land at B (real clock, async mesh).
	deadline := time.Now().Add(15 * time.Second)
	finalOK := false
	for time.Now().Before(deadline) {
		res, _ := dbB.Exec("SELECT salary FROM employees WHERE empid = 'e1'")
		if len(res.Rows) == 1 && res.Rows[0][0].Equal(data.NewInt(final)) {
			finalOK = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // let stragglers and implicit writes land
	follows := guarantee.Follows{X: "salary1", Y: "salary2"}.Check(tk.Trace())
	strict := guarantee.StrictlyFollows{X: "salary1", Y: "salary2"}.Check(tk.Trace())
	prop7 := 0
	for _, v := range tk.CheckTrace() {
		if v.Property == 7 {
			prop7++
		}
	}
	tk.Stop()
	return []string{
		"tcp-batch", fmt.Sprint(updates),
		holdsMark(follows.Holds), holdsMark(strict.Holds),
		fmt.Sprint(prop7), fmt.Sprint(finalOK),
	}
}

// E11 reproduces the Section 7.2 clock-skew discussion: periodic
// guarantees assume global clocks, which is safe as long as the
// guarantee's interval includes an error margin larger than the skew.
// The batcher's clock is skewed against the guarantee window: skews
// within the 15-minute margin leave the guarantee intact; a skew beyond
// it breaks the window.
func E11(days int) Table {
	tbl := Table{
		ID:      "E11",
		Title:   "Clock skew vs the periodic guarantee's error margin",
		Ref:     "Section 7.2",
		Columns: []string{"batch clock skew", "margin", "days", "night guarantee"},
	}
	for _, skew := range []time.Duration{0, 10 * time.Minute, 25 * time.Minute} {
		clk := vclock.NewVirtual(vclock.Epoch)
		tr := trace.New(nil)
		srcDB := relstore.New("branch")
		must2(srcDB.Exec("CREATE TABLE accts (id TEXT, bal INT, PRIMARY KEY (id))"))
		dstDB := relstore.New("hq")
		must2(dstDB.Exec("CREATE TABLE accts (id TEXT, bal INT, PRIMARY KEY (id))"))
		srcCfg, err := rid.ParseString(`
kind relstore
site BR
item bal1
  type int
  read   SELECT bal FROM accts WHERE id = $n
  list   SELECT id FROM accts
`)
		must(err)
		dstCfg, err := rid.ParseString(`
kind relstore
site HQ
item bal2
  type int
  read   SELECT bal FROM accts WHERE id = $n
  write  UPDATE accts SET bal = $b WHERE id = $n
  insert INSERT INTO accts (id, bal) VALUES ($n, $b)
  delete DELETE FROM accts WHERE id = $n
  list   SELECT id FROM accts
`)
		must(err)
		srcT, err := translator.NewRel(srcCfg, srcDB, clk)
		must(err)
		dstT, err := translator.NewRel(dstCfg, dstDB, clk)
		must(err)
		spec, err := rule.ParseSpecString("site BR\nsite HQ\nitem bal1 @ BR\nitem bal2 @ HQ\n")
		must(err)
		sh := shell.New("hq", spec, shell.Options{Clock: clk, Trace: tr})
		sh.AddSite("HQ", dstT)
		must(sh.Start())
		// A skewed site clock makes the 17:00 batch actually run at
		// 17:00 + skew in global time.
		b := strategy.NewBatcher(sh, clk, 17*time.Hour+skew, srcT, "bal1", "bal2")
		b.Start()
		appWrite := func(id string, bal int64, old data.Value) {
			if _, err := srcDB.Exec(fmt.Sprintf("UPDATE accts SET bal = %d WHERE id = '%s'", bal, id)); err != nil {
				panic(err)
			}
			if r, _ := srcDB.Exec(fmt.Sprintf("SELECT id FROM accts WHERE id = '%s'", id)); len(r.Rows) == 0 {
				srcDB.Exec(fmt.Sprintf("INSERT INTO accts VALUES ('%s', %d)", id, bal))
			}
			sh.Spontaneous(data.Item("bal1", data.NewString(id)), old, data.NewInt(bal))
		}
		var prev data.Value
		for d := 0; d < days; d++ {
			clk.AdvanceTo(vclock.Epoch.Add(time.Duration(d)*24*time.Hour + 10*time.Hour))
			appWrite("a1", int64(100*d+50), prev)
			prev = data.NewInt(int64(100*d + 50))
			clk.AdvanceTo(vclock.Epoch.Add(time.Duration(d+1) * 24 * time.Hour))
		}
		clk.Advance(9 * time.Hour)
		night := b.Guarantee(17*time.Hour+15*time.Minute, 8*time.Hour).Check(tr)
		tbl.Rows = append(tbl.Rows, []string{
			skew.String(), "15m", fmt.Sprint(days), holdsMark(night.Holds),
		})
		b.Stop()
		sh.Stop()
	}
	tbl.Notes = append(tbl.Notes,
		"expected shape: skews inside the 15-minute margin (0, 10m) leave the 17:15–08:00",
		"guarantee intact; a 25-minute skew pushes the batch past the window start and",
		"breaks it — quantifying the paper's 'error margin in the interval' advice")
	return tbl
}
