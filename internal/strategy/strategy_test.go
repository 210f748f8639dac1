package strategy

import (
	"testing"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/event"
	"cmtk/internal/guarantee"
	"cmtk/internal/rid"
	"cmtk/internal/ris"
	"cmtk/internal/ris/relstore"
	"cmtk/internal/rule"
	"cmtk/internal/shell"
	"cmtk/internal/trace"
	"cmtk/internal/translator"
	"cmtk/internal/transport"
	"cmtk/internal/vclock"
)

func TestNotifyPropagationRules(t *testing.T) {
	ch := NotifyPropagation(Copy{X: "salary1", Y: "salary2", Arity: 1}, Options{Delta: 5 * time.Second})
	if len(ch.Rules) != 1 {
		t.Fatalf("rules = %v", ch.Rules)
	}
	want := "prop:salary1:salary2: N(salary1(n1), b) ->5s WR(salary2(n1), b)"
	if got := ch.Rules[0].String(); got != want {
		t.Fatalf("rule = %q, want %q", got, want)
	}
	if len(ch.Guarantees) != 5 {
		t.Fatalf("guarantees = %d", len(ch.Guarantees))
	}
	if err := ch.Rules[0].Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCachedPropagationRules(t *testing.T) {
	ch := CachedPropagation(Copy{X: "salary1", Y: "salary2", Arity: 1}, "B", Options{})
	if ch.Private["cache_salary2"] != "B" {
		t.Fatalf("private = %v", ch.Private)
	}
	r := ch.Rules[0]
	if len(r.Steps) != 2 || r.Steps[0].Cond == nil || r.Steps[1].Cond != nil {
		t.Fatalf("steps = %v", r.Steps)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPollingRules(t *testing.T) {
	keys := []data.Value{data.NewString("e1"), data.NewString("e2")}
	ch, err := Polling(Copy{X: "salary1", Y: "salary2", Arity: 1}, Options{PollPeriod: 60 * time.Second, PollKeys: keys})
	if err != nil {
		t.Fatal(err)
	}
	// Two poll rules plus one forward rule.
	if len(ch.Rules) != 3 {
		t.Fatalf("rules = %v", ch.Rules)
	}
	// Guarantee (2) must be absent under polling.
	for _, g := range ch.Guarantees {
		if _, isLeads := g.(guarantee.Leads); isLeads {
			t.Fatal("polling claims the leads guarantee")
		}
	}
	if _, err := Polling(Copy{X: "x", Y: "y", Arity: 1}, Options{}); err == nil {
		t.Fatal("polling without keys accepted")
	}
	// Arity 0 needs no keys.
	ch0, err := Polling(Copy{X: "X", Y: "Y"}, Options{})
	if err != nil || len(ch0.Rules) != 2 {
		t.Fatalf("arity-0 polling = %v, %v", ch0.Rules, err)
	}
}

func TestMonitorRules(t *testing.T) {
	ch, err := Monitor(Copy{X: "X", Y: "Y"}, "M", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.Rules) != 2 || len(ch.Private) != 4 {
		t.Fatalf("rules=%d private=%v", len(ch.Rules), ch.Private)
	}
	for _, r := range ch.Rules {
		if err := r.Validate(); err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
	}
	if _, err := Monitor(Copy{X: "X", Y: "Y", Arity: 1}, "M", Options{}); err == nil {
		t.Fatal("keyed monitor accepted")
	}
}

func TestSuggestCopy(t *testing.T) {
	c := Copy{X: "salary1", Y: "salary2", Arity: 1}
	o := Options{PollKeys: []data.Value{data.NewString("e1")}}
	// Notify + write: propagation strategies lead.
	got := SuggestCopy(c, ris.CapNotify, ris.CapWrite, "A", "B", o)
	if len(got) != 2 || got[0].Name != "notify-propagation" || got[1].Name != "cached-propagation" {
		t.Fatalf("suggestions = %v", names(got))
	}
	// Read-only source: polling only.
	got = SuggestCopy(c, ris.CapRead, ris.CapWrite, "A", "B", o)
	if len(got) != 1 || got[0].Name != "polling" {
		t.Fatalf("suggestions = %v", names(got))
	}
	// Notify both sides, no write anywhere: monitor (single items only).
	got = SuggestCopy(Copy{X: "X", Y: "Y"}, ris.CapNotify, ris.CapNotify, "A", "B", o)
	if len(got) != 1 || got[0].Name != "monitor" {
		t.Fatalf("suggestions = %v", names(got))
	}
	// Nothing applicable.
	got = SuggestCopy(c, ris.CapRead, ris.CapRead, "A", "B", o)
	if len(got) != 0 {
		t.Fatalf("suggestions = %v", names(got))
	}
}

func names(cs []Choice) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.Name
	}
	return out
}

func TestMergeIntoSpec(t *testing.T) {
	spec, err := rule.ParseSpecString(`
site A
site B
item salary1 @ A
item salary2 @ B
`)
	if err != nil {
		t.Fatal(err)
	}
	ch := CachedPropagation(Copy{X: "salary1", Y: "salary2", Arity: 1}, "B", Options{})
	if err := Merge(spec, ch); err != nil {
		t.Fatal(err)
	}
	if len(spec.Rules) != 1 || spec.Private["cache_salary2"] != "B" {
		t.Fatalf("spec = %s", spec)
	}
	// Double merge collides on the private item.
	if err := Merge(spec, ch); err == nil {
		t.Fatal("double merge accepted")
	}
	// Private item at undeclared site fails.
	bad := Choice{Private: map[string]string{"z": "Nowhere"}}
	if err := Merge(spec, bad); err == nil {
		t.Fatal("undeclared site accepted")
	}
}

// monitorScenario drives the Section 6.3 monitor end to end on private
// items at one shell.
func TestMonitorScenarioEndToEnd(t *testing.T) {
	clk := vclock.NewVirtual(vclock.Epoch)
	tr := trace.New(nil)
	spec, err := rule.ParseSpecString(`
site M
item X @ M
item Y @ M
`)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := Monitor(Copy{X: "X", Y: "Y"}, "M", Options{Delta: 2 * time.Second, Bound: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := Merge(spec, ch); err != nil {
		t.Fatal(err)
	}
	sh := shell.New("m", spec, shell.Options{Clock: clk, Trace: tr})
	sh.AddSite("M", nil)
	if err := sh.Start(); err != nil {
		t.Fatal(err)
	}
	defer sh.Stop()

	// The monitor consumes N events; without translators we inject them
	// through spontaneous writes followed by the shell's own notify step.
	// Simplest faithful driver: write the items and notify via rules —
	// here we inject N events by adding notify rules for private-less
	// items is overkill, so we call the monitor rules through Ws->N
	// emulation: record the writes and notifications directly.
	notify := func(base string, v int64, old data.Value) {
		item := data.Item(base)
		sh.Spontaneous(item, old, data.NewInt(v))
	}
	// Add notify rules so Ws events produce N events at the shell.
	_ = notify
	// Instead of hand-driving N, extend the spec: Ws(X,b) ->1s N(X,b).
	// (Declared up front in a fresh scenario below.)
	sh.Stop()

	spec2, err := rule.ParseSpecString(`
site M
item X @ M
item Y @ M
rule nx: Ws(X, b) ->1s N(X, b)
rule ny: Ws(Y, b) ->1s N(Y, b)
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := Merge(spec2, ch); err != nil {
		t.Fatal(err)
	}
	clk2 := vclock.NewVirtual(vclock.Epoch)
	tr2 := trace.New(nil)
	sh2 := shell.New("m", spec2, shell.Options{Clock: clk2, Trace: tr2})
	sh2.AddSite("M", nil)
	if err := sh2.Start(); err != nil {
		t.Fatal(err)
	}
	defer sh2.Stop()

	x, y := data.Item("X"), data.Item("Y")
	sh2.Spontaneous(x, data.NullValue, data.NewInt(1))
	sh2.Spontaneous(y, data.NullValue, data.NewInt(1))
	clk2.Advance(5 * time.Second)
	flag, _ := sh2.ReadAux(data.Item("Flag_XY"))
	if !flag.Truthy() {
		t.Fatalf("Flag = %s after agreement", flag)
	}
	tb, ok := sh2.ReadAux(data.Item("Tb_XY"))
	if !ok {
		t.Fatal("Tb unset")
	}
	if _, ok := vclock.ValueTime(tb); !ok {
		t.Fatalf("Tb = %s not a time", tb)
	}
	// Divergence clears the flag.
	sh2.Spontaneous(x, data.NewInt(1), data.NewInt(2))
	clk2.Advance(5 * time.Second)
	flag, _ = sh2.ReadAux(data.Item("Flag_XY"))
	if flag.Truthy() {
		t.Fatal("Flag still set after divergence")
	}
	// Re-agreement sets it again with a fresh Tb.
	sh2.Spontaneous(y, data.NewInt(1), data.NewInt(2))
	clk2.Advance(5 * time.Second)
	flag, _ = sh2.ReadAux(data.Item("Flag_XY"))
	if !flag.Truthy() {
		t.Fatal("Flag not set after re-agreement")
	}
	// The monitor guarantee holds on the recorded trace.
	rep := ch.Guarantees[0].Check(tr2)
	if !rep.Holds {
		t.Fatalf("monitor guarantee: %v", rep.Violations)
	}
}

func TestSweeper(t *testing.T) {
	clk := vclock.NewVirtual(vclock.Epoch)
	tr := trace.New(nil)

	// Referencing DB: projects; target DB: salaries.
	projDB := relstore.New("projects")
	if _, err := projDB.Exec("CREATE TABLE projects (empid TEXT, proj TEXT, PRIMARY KEY (empid))"); err != nil {
		t.Fatal(err)
	}
	salDB := relstore.New("salaries")
	if _, err := salDB.Exec("CREATE TABLE salaries (empid TEXT, amount INT, PRIMARY KEY (empid))"); err != nil {
		t.Fatal(err)
	}
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
	if err != nil {
		t.Fatal(err)
	}
	salCfg, err := rid.ParseString(`
kind relstore
site S
item salary
  type int
  read   SELECT amount FROM salaries WHERE empid = $n
  list   SELECT empid FROM salaries
`)
	if err != nil {
		t.Fatal(err)
	}
	projT, err := translator.NewRel(projCfg, projDB, clk)
	if err != nil {
		t.Fatal(err)
	}
	salT, err := translator.NewRel(salCfg, salDB, clk)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := rule.ParseSpecString("site P\nsite S\nitem project @ P\nitem salary @ S\n")
	if err != nil {
		t.Fatal(err)
	}
	sh := shell.New("p", spec, shell.Options{Clock: clk, Trace: tr})
	sh.AddSite("P", projT)
	if err := sh.Start(); err != nil {
		t.Fatal(err)
	}
	defer sh.Stop()

	day := 24 * time.Hour
	sw := NewSweeper(sh, clk, day, projT, "project", salT, "salary")
	sw.Start()
	defer sw.Stop()

	// e1 has a salary record; e2 is an orphan.
	salDB.Exec("INSERT INTO salaries VALUES ('e1', 100)")
	projDB.Exec("INSERT INTO projects VALUES ('e1', 'apollo')")
	// Record the spontaneous insert of the orphan so the trace knows it.
	projDB.Exec("INSERT INTO projects VALUES ('e2', 'zeus')")
	sh.Spontaneous(data.Item("project", data.NewString("e1")), data.NullValue, data.NewString("apollo"))
	sh.Spontaneous(data.Item("project", data.NewString("e2")), data.NullValue, data.NewString("zeus"))
	sh.Spontaneous(data.Item("salary", data.NewString("e1")), data.NullValue, data.NewInt(100))

	clk.Advance(25 * time.Hour) // one sweep
	if res, err := projDB.Exec("SELECT * FROM projects"); err != nil || len(res.Rows) != 1 {
		t.Fatalf("projects rows = %d, want 1 (orphan deleted) (%v)", len(res.Rows), err)
	}
	sweeps, orphaned, deleted := sw.Stats()
	if sweeps != 1 || orphaned != 1 || deleted != 1 {
		t.Fatalf("stats = %d, %d, %d", sweeps, orphaned, deleted)
	}
	clk.Advance(time.Hour) // settle trace horizon past the deletion
	rep := sw.Guarantee(2 * time.Hour).Check(tr)
	if !rep.Holds {
		t.Fatalf("referential guarantee: %v", rep.Violations)
	}

	// Report-only mode counts without deleting.
	sw.ReportOnly = true
	projDB.Exec("INSERT INTO projects VALUES ('e3', 'hera')")
	sw.SweepNow()
	if res, err := projDB.Exec("SELECT * FROM projects"); err != nil || len(res.Rows) != 2 {
		t.Fatalf("report-only deleted rows: %d (%v)", len(res.Rows), err)
	}
}

func TestBatcherPeriodicGuarantee(t *testing.T) {
	clk := vclock.NewVirtual(vclock.Epoch) // midnight
	tr := trace.New(nil)
	srcDB := relstore.New("branch")
	srcDB.Exec("CREATE TABLE accts (id TEXT, bal INT, PRIMARY KEY (id))")
	dstDB := relstore.New("hq")
	dstDB.Exec("CREATE TABLE accts (id TEXT, bal INT, PRIMARY KEY (id))")
	srcCfg, _ := rid.ParseString(`
kind relstore
site BR
item bal1
  type int
  read   SELECT bal FROM accts WHERE id = $n
  list   SELECT id FROM accts
`)
	dstCfg, _ := rid.ParseString(`
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
	srcT, _ := translator.NewRel(srcCfg, srcDB, clk)
	dstT, _ := translator.NewRel(dstCfg, dstDB, clk)
	spec, _ := rule.ParseSpecString("site BR\nsite HQ\nitem bal1 @ BR\nitem bal2 @ HQ\n")
	sh := shell.New("hq", spec, shell.Options{Clock: clk, Trace: tr})
	sh.AddSite("HQ", dstT)
	if err := sh.Start(); err != nil {
		t.Fatal(err)
	}
	defer sh.Stop()

	b := NewBatcher(sh, clk, 17*time.Hour, srcT, "bal1", "bal2")
	b.Start()
	defer b.Stop()

	appWrite := func(id string, bal int64, old data.Value) {
		srcDB.Exec("UPDATE accts SET bal = " + data.NewInt(bal).String() + " WHERE id = '" + id + "'")
		if r, _ := srcDB.Exec("SELECT id FROM accts WHERE id = '" + id + "'"); len(r.Rows) == 0 {
			srcDB.Exec("INSERT INTO accts VALUES ('" + id + "', " + data.NewInt(bal).String() + ")")
		}
		sh.Spontaneous(data.Item("bal1", data.NewString(id)), old, data.NewInt(bal))
	}
	// Business-hours updates on day 1 (10:00, 14:00).
	clk.Advance(10 * time.Hour)
	appWrite("a1", 50, data.NullValue)
	clk.Advance(4 * time.Hour)
	appWrite("a1", 80, data.NewInt(50))
	// Batch at 17:00, then overnight quiet until 08:00 next day.
	clk.Advance(20 * time.Hour) // now day 2, 10:00
	if runs, copied := b.Stats(); runs != 1 || copied != 1 {
		t.Fatalf("batch stats = %d, %d", runs, copied)
	}
	res, _ := dstDB.Exec("SELECT bal FROM accts WHERE id = 'a1'")
	if len(res.Rows) != 1 || !res.Rows[0][0].Equal(data.NewInt(80)) {
		t.Fatalf("hq balance = %v", res.Rows)
	}
	// Day-2 business updates, then another batch.
	appWrite("a1", 95, data.NewInt(80))
	clk.Advance(24 * time.Hour)

	g := b.Guarantee(17*time.Hour+15*time.Minute, 8*time.Hour)
	rep := g.Check(tr)
	if !rep.Holds {
		t.Fatalf("periodic guarantee: %v", rep.Violations)
	}
	// Sanity: the same guarantee over business hours must fail (balances
	// diverge during the day).
	bad := PeriodicFamily{Src: "bal1", Dst: "bal2", From: 9 * time.Hour, To: 17 * time.Hour}
	if rep := bad.Check(tr); rep.Holds {
		t.Fatal("daytime equality held unexpectedly")
	}
}

func TestArithmeticStrategyEndToEnd(t *testing.T) {
	// Section 7.1: X = Y + Z with Y, Z at remote sites.  The strategy
	// caches Y and Z at X's site and recomputes X locally.
	clk := vclock.NewVirtual(vclock.Epoch)
	tr := trace.New(nil)
	spec, err := rule.ParseSpecString(`
site SY
site SZ
site SX
item Y @ SY
item Z @ SZ
item X @ SX
rule ny: Ws(Y, b) ->1s N(Y, b)
rule nz: Ws(Z, b) ->1s N(Z, b)
`)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := Arithmetic("X", "Y", "Z", "+", "SX", Options{Delta: 2 * time.Second, Bound: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := Merge(spec, ch); err != nil {
		t.Fatal(err)
	}

	bus := transport.NewBus(clk, 100*time.Millisecond)
	opts := shell.Options{Clock: clk, Trace: tr}
	shY := shell.New("sy", spec, opts)
	shY.AddSite("SY", nil)
	shZ := shell.New("sz", spec, opts)
	shZ.AddSite("SZ", nil)
	shX := shell.New("sx", spec, opts)
	shX.AddSite("SX", nil)
	for _, sh := range []*shell.Shell{shY, shZ, shX} {
		sh.Route("SY", "sy")
		sh.Route("SZ", "sz")
		sh.Route("SX", "sx")
		if err := sh.Attach(bus); err != nil {
			t.Fatal(err)
		}
		if err := sh.Start(); err != nil {
			t.Fatal(err)
		}
		defer sh.Stop()
	}

	y, z, x := data.Item("Y"), data.Item("Z"), data.Item("X")
	shY.Spontaneous(y, data.NullValue, data.NewInt(10))
	clk.Advance(time.Minute)
	// Only Y known: X not yet derivable, no write.
	if v, ok := shX.ReadAux(x); ok && !v.IsNull() {
		t.Fatalf("X set before both inputs known: %s", v)
	}
	shZ.Spontaneous(z, data.NullValue, data.NewInt(5))
	clk.Advance(time.Minute)
	if v, ok := shX.ReadAux(x); !ok || !v.Equal(data.NewInt(15)) {
		t.Fatalf("X = %s, %v; want 15", v, ok)
	}
	shY.Spontaneous(y, data.NewInt(10), data.NewInt(20))
	clk.Advance(time.Minute)
	if v, _ := shX.ReadAux(x); !v.Equal(data.NewInt(25)) {
		t.Fatalf("X = %s, want 25", v)
	}

	// The derived guarantee and full execution validity.
	rep := ch.Guarantees[0].Check(tr)
	if !rep.Holds || rep.Checked == 0 {
		t.Fatalf("derived guarantee: %+v", rep)
	}
	rules := append(spec.Rules, shY.ImplicitRules()...)
	rules = append(rules, shZ.ImplicitRules()...)
	rules = append(rules, shX.ImplicitRules()...)
	if vs := trace.NewChecker(rules).Check(tr); len(vs) != 0 {
		t.Fatalf("trace violations: %v\n%s", vs, tr)
	}
}

func TestArithmeticSubtractAndErrors(t *testing.T) {
	if _, err := Arithmetic("X", "Y", "Z", "*", "S", Options{}); err == nil {
		t.Fatal("multiplication accepted")
	}
	ch, err := Arithmetic("X", "Y", "Z", "-", "S", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ch.Rules {
		if err := r.Validate(); err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
	}
}

func TestDerivedLagDetectsViolation(t *testing.T) {
	// A trace where Y+Z settles but X never follows.
	tr := trace.New(nil)
	app := func(sec int, base string, v int64) {
		tr.Append(&event.Event{Time: vclock.Epoch.Add(time.Duration(sec) * time.Second),
			Site: "s", Desc: event.W(data.Item(base), data.NewInt(v))})
	}
	app(0, "Y", 1)
	app(1, "Z", 2)
	app(500, "Q", 0) // horizon
	g := DerivedLag{X: "X", Y: "Y", Z: "Z", Op: "+", Kappa: 10 * time.Second}
	if rep := g.Check(tr); rep.Holds {
		t.Fatal("missing derivation passed")
	}
	// And one where X does follow.
	app(501, "X", 3)
	tr2 := trace.New(nil)
	app2 := func(sec int, base string, v int64) {
		tr2.Append(&event.Event{Time: vclock.Epoch.Add(time.Duration(sec) * time.Second),
			Site: "s", Desc: event.W(data.Item(base), data.NewInt(v))})
	}
	app2(0, "Y", 1)
	app2(1, "Z", 2)
	app2(3, "X", 3)
	app2(500, "Q", 0)
	if rep := g.Check(tr2); !rep.Holds {
		t.Fatalf("correct derivation failed: %+v", rep)
	}
}
