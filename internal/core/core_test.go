package core

import (
	"errors"
	"testing"
	"time"

	"cmtk/internal/cmi"
	"cmtk/internal/data"
	"cmtk/internal/guarantee"
	"cmtk/internal/rid"
	"cmtk/internal/ris/relstore"
	"cmtk/internal/rule"
	"cmtk/internal/strategy"
	"cmtk/internal/translator"
	"cmtk/internal/vclock"
)

const ridA = `
kind relstore
site A
item salary1
  type int
  read   SELECT salary FROM employees WHERE empid = $n
  list   SELECT empid FROM employees
  watch  employees
  keycol empid
  valcol salary
interface Ws(salary1(n), b) ->2s N(salary1(n), b)
interface RR(salary1(n)) && salary1(n) = b ->1s R(salary1(n), b)
`

const ridB = `
kind relstore
site B
item salary2
  type int
  read   SELECT salary FROM employees WHERE empid = $n
  write  UPDATE employees SET salary = $b WHERE empid = $n
  insert INSERT INTO employees (empid, salary) VALUES ($n, $b)
  delete DELETE FROM employees WHERE empid = $n
  list   SELECT empid FROM employees
  watch  employees
  keycol empid
  valcol salary
interface WR(salary2(n), b) ->3s W(salary2(n), b)
`

func newEmployeesDB(t *testing.T, name string) *relstore.DB {
	t.Helper()
	db := relstore.New(name)
	if _, err := db.Exec("CREATE TABLE employees (empid TEXT, salary INT, PRIMARY KEY (empid))"); err != nil {
		t.Fatal(err)
	}
	return db
}

func buildPayroll(t *testing.T, strat string) (*Toolkit, *vclock.Virtual, *relstore.DB, *relstore.DB) {
	t.Helper()
	clk := vclock.NewVirtual(vclock.Epoch)
	dbA := newEmployeesDB(t, "branch")
	dbB := newEmployeesDB(t, "hq")
	cfgA, err := rid.ParseString(ridA)
	if err != nil {
		t.Fatal(err)
	}
	cfgB, err := rid.ParseString(ridB)
	if err != nil {
		t.Fatal(err)
	}
	tk := New(Config{Clock: clk, BusLatency: 100 * time.Millisecond, FireDelay: 50 * time.Millisecond})
	if err := tk.AddSite(Site{RID: cfgA, Local: &translator.LocalStores{Rel: dbA}}); err != nil {
		t.Fatal(err)
	}
	if err := tk.AddSite(Site{RID: cfgB, Local: &translator.LocalStores{Rel: dbB}}); err != nil {
		t.Fatal(err)
	}
	if err := tk.AddCopy(CopyConstraint{X: "salary1", Y: "salary2", Arity: 1, Strategy: strat}); err != nil {
		t.Fatal(err)
	}
	if err := tk.Deploy(); err != nil {
		t.Fatal(err)
	}
	if err := tk.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tk.Stop)
	return tk, clk, dbA, dbB
}

func TestDeployAndPropagate(t *testing.T) {
	tk, clk, dbA, dbB := buildPayroll(t, "auto")
	dbA.Exec("INSERT INTO employees VALUES ('e1', 100)")
	clk.Advance(2 * time.Second)
	res, _ := dbB.Exec("SELECT salary FROM employees WHERE empid = 'e1'")
	if len(res.Rows) != 1 || !res.Rows[0][0].Equal(data.NewInt(100)) {
		t.Fatalf("B rows = %v", res.Rows)
	}
	if vs := tk.CheckTrace(); len(vs) != 0 {
		t.Fatalf("trace violations: %v", vs)
	}
	reports := tk.CheckGuarantees()
	if len(reports) == 0 || !guarantee.AllHold(reports) {
		t.Fatalf("guarantees: %v", reports)
	}
}

func TestSuggestionsOrder(t *testing.T) {
	tk, _, _, _ := buildPayroll(t, "auto")
	sugg, err := tk.Suggestions(CopyConstraint{X: "salary1", Y: "salary2", Arity: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(sugg) != 2 || sugg[0].Name != "notify-propagation" {
		t.Fatalf("suggestions = %v", choiceNames(sugg))
	}
}

func TestExplicitStrategySelection(t *testing.T) {
	tk, clk, dbA, dbB := buildPayroll(t, "cached")
	dbA.Exec("INSERT INTO employees VALUES ('e1', 100)")
	clk.Advance(2 * time.Second)
	res, _ := dbB.Exec("SELECT salary FROM employees WHERE empid = 'e1'")
	if len(res.Rows) != 1 {
		t.Fatalf("B rows = %v", res.Rows)
	}
	// The cache private item ended up in the spec.
	if tk.spec.Private["cache_salary2"] != "B" {
		t.Fatalf("private items = %v", tk.spec.Private)
	}
}

func TestStrategyNotApplicableRejected(t *testing.T) {
	clk := vclock.NewVirtual(vclock.Epoch)
	dbA := newEmployeesDB(t, "a")
	dbB := newEmployeesDB(t, "b")
	cfgA, _ := rid.ParseString(ridA)
	cfgB, _ := rid.ParseString(ridB)
	tk := New(Config{Clock: clk})
	tk.AddSite(Site{RID: cfgA, Local: &translator.LocalStores{Rel: dbA}})
	tk.AddSite(Site{RID: cfgB, Local: &translator.LocalStores{Rel: dbB}})
	// "monitor" is inapplicable: B offers write.
	tk.AddCopy(CopyConstraint{X: "salary1", Y: "salary2", Arity: 1, Strategy: "monitor"})
	if err := tk.Deploy(); err == nil {
		t.Fatal("inapplicable strategy deployed")
	}
}

func TestSharedShellFigureOne(t *testing.T) {
	// Site B has no shell of its own: shell "main" hosts both sites, as
	// for Site 3 in Figure 1.
	clk := vclock.NewVirtual(vclock.Epoch)
	dbA := newEmployeesDB(t, "a")
	dbB := newEmployeesDB(t, "b")
	cfgA, _ := rid.ParseString(ridA)
	cfgB, _ := rid.ParseString(ridB)
	tk := New(Config{Clock: clk})
	tk.AddSite(Site{RID: cfgA, Local: &translator.LocalStores{Rel: dbA}, Shell: "main"})
	tk.AddSite(Site{RID: cfgB, Local: &translator.LocalStores{Rel: dbB}, Shell: "main"})
	tk.AddCopy(CopyConstraint{X: "salary1", Y: "salary2", Arity: 1})
	if err := tk.Deploy(); err != nil {
		t.Fatal(err)
	}
	if err := tk.Start(); err != nil {
		t.Fatal(err)
	}
	defer tk.Stop()
	if len(tk.shellNames()) != 1 {
		t.Fatalf("shells = %v", tk.shellNames())
	}
	dbA.Exec("INSERT INTO employees VALUES ('e1', 7)")
	clk.Advance(2 * time.Second)
	res, _ := dbB.Exec("SELECT salary FROM employees WHERE empid = 'e1'")
	if len(res.Rows) != 1 || !res.Rows[0][0].Equal(data.NewInt(7)) {
		t.Fatalf("B rows = %v", res.Rows)
	}
	if vs := tk.CheckTrace(); len(vs) != 0 {
		t.Fatalf("trace violations: %v", vs)
	}
}

func TestStatusAfterFailures(t *testing.T) {
	tk, clk, _, _ := buildPayroll(t, "auto")
	for _, st := range tk.Status() {
		if !st.Valid {
			t.Fatalf("guarantee invalid before any failure: %+v", st)
		}
	}
	// Inject a metric failure at site A.
	sh, ok := tk.ShellOfSite("A")
	if !ok {
		t.Fatal("no shell for A")
	}
	_ = sh
	iface, _ := tk.Interface("A")
	// Reading an unbound item produces a logical failure; simulate a
	// metric one directly through the shell instead.
	shA, _ := tk.Shell("shell-A")
	shA.OnFailure(func(cmi.Failure) {})
	// Use the translator hub by reading a bogus item: logical failure.
	iface.Read(data.Item("ghost", data.NewString("x")))
	clk.Advance(time.Second)
	status := tk.Status()
	invalid := 0
	for _, st := range status {
		if !st.Valid {
			invalid++
			if st.Reason == "" {
				t.Fatalf("missing reason: %+v", st)
			}
		}
	}
	// Logical failure invalidates all guarantees involving site A.
	if invalid != len(status) {
		t.Fatalf("status = %+v", status)
	}
	if len(tk.Failures()) == 0 {
		t.Fatal("no failures recorded")
	}
}

func TestMetricFailureSparesNonMetricGuarantees(t *testing.T) {
	tk, clk, _, _ := buildPayroll(t, "auto")
	// Deliver a metric failure as the translator hub would.
	shAFail(tk, clk)
	metInvalid, nonMetInvalid := 0, 0
	for _, st := range tk.Status() {
		if !st.Valid {
			if st.Metric {
				metInvalid++
			} else {
				nonMetInvalid++
			}
		}
	}
	if metInvalid == 0 {
		t.Fatal("metric guarantees survived a metric failure")
	}
	if nonMetInvalid != 0 {
		t.Fatal("non-metric guarantees invalidated by a metric failure")
	}
}

// shAFail injects a metric failure via the failure-propagation path.
func shAFail(tk *Toolkit, clk *vclock.Virtual) {
	shA, _ := tk.Shell("shell-A")
	shA.ReportMetricFailure("A", "test", errors.New("simulated overload"))
	clk.Advance(time.Second)
}

func TestErrorsOnMisuse(t *testing.T) {
	tk := New(Config{Clock: vclock.NewVirtual(vclock.Epoch)})
	if err := tk.AddSite(Site{}); err == nil {
		t.Fatal("site without RID accepted")
	}
	if err := tk.Start(); err == nil {
		t.Fatal("Start before Deploy accepted")
	}
	cfgA, _ := rid.ParseString(ridA)
	dbA := newEmployeesDB(t, "a")
	tk.AddSite(Site{RID: cfgA, Local: &translator.LocalStores{Rel: dbA}})
	if err := tk.AddSite(Site{RID: cfgA, Local: &translator.LocalStores{Rel: dbA}}); err == nil {
		t.Fatal("duplicate site accepted")
	}
	tk.AddCopy(CopyConstraint{X: "salary1", Y: "nowhere"})
	if err := tk.Deploy(); err == nil {
		t.Fatal("constraint on unbound item deployed")
	}
}

func TestIsMetric(t *testing.T) {
	if IsMetric(guarantee.Follows{}) || IsMetric(guarantee.Invariant{}) {
		t.Error("non-metric classified metric")
	}
	if !IsMetric(guarantee.MetricFollows{}) || !IsMetric(guarantee.ExistsWithin{}) {
		t.Error("metric classified non-metric")
	}
}

func TestAppWriteRecordsWhenNoNotify(t *testing.T) {
	// Polling deployment: app writes at A are invisible to the CM, so
	// RecordSpontaneous must mirror them into the trace.
	tk, clk, dbA, _ := buildPayrollPolling(t)
	item := data.Item("salary1", data.NewString("e1"))
	dbA.Exec("INSERT INTO employees VALUES ('e1', 5)")
	tk.RecordSpontaneous("A", item, data.NullValue, data.NewInt(5))
	clk.Advance(65 * time.Second)
	if vs := tk.CheckTrace(); len(vs) != 0 {
		t.Fatalf("trace violations: %v", vs)
	}
	rep := guarantee.Follows{X: "salary1", Y: "salary2"}.Check(tk.Trace())
	if !rep.Holds || rep.Checked == 0 {
		t.Fatalf("follows: %+v", rep)
	}
}

func buildPayrollPolling(t *testing.T) (*Toolkit, *vclock.Virtual, *relstore.DB, *relstore.DB) {
	t.Helper()
	clk := vclock.NewVirtual(vclock.Epoch)
	dbA := newEmployeesDB(t, "branch")
	dbB := newEmployeesDB(t, "hq")
	// Site A offers only a read interface this time (the Section 4.2.3
	// interface change).
	cfgA, err := rid.ParseString(`
kind relstore
site A
item salary1
  type int
  read   SELECT salary FROM employees WHERE empid = $n
  list   SELECT empid FROM employees
interface RR(salary1(n)) && salary1(n) = b ->1s R(salary1(n), b)
`)
	if err != nil {
		t.Fatal(err)
	}
	cfgB, _ := rid.ParseString(ridB)
	tk := New(Config{Clock: clk, BusLatency: 100 * time.Millisecond})
	tk.AddSite(Site{RID: cfgA, Local: &translator.LocalStores{Rel: dbA}})
	tk.AddSite(Site{RID: cfgB, Local: &translator.LocalStores{Rel: dbB}})
	tk.AddCopy(CopyConstraint{
		X: "salary1", Y: "salary2", Arity: 1,
		Options: strategyOptionsWithKeys("e1"),
	})
	if err := tk.Deploy(); err != nil {
		t.Fatal(err)
	}
	if err := tk.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tk.Stop)
	// Sanity: auto selection picked polling (the only applicable one).
	picked := false
	for _, r := range tk.spec.Rules {
		if r.LHS.Op.String() == "P" {
			picked = true
		}
	}
	if !picked {
		t.Fatalf("polling not selected; rules: %v", tk.spec.Rules)
	}
	return tk, clk, dbA, dbB
}

func strategyOptionsWithKeys(keys ...string) strategy.Options {
	vals := make([]data.Value, len(keys))
	for i, k := range keys {
		vals[i] = data.NewString(k)
	}
	return strategy.Options{PollPeriod: 60 * time.Second, PollKeys: vals}
}

func TestAddInequalityDemarcation(t *testing.T) {
	// X and Y are integer items in two relational databases; the
	// demarcation agents keep X <= Y with local limits.
	clk := vclock.NewVirtual(vclock.Epoch)
	dbX := newEmployeesDB(t, "x")
	dbY := newEmployeesDB(t, "y")
	cfgX, err := rid.ParseString(`
kind relstore
site SX
item X
  type int
  read   SELECT salary FROM employees WHERE empid = 'x'
  write  UPDATE employees SET salary = $b WHERE empid = 'x'
  insert INSERT INTO employees (empid, salary) VALUES ('x', $b)
  delete DELETE FROM employees WHERE empid = 'x'
interface WR(X, b) ->1s W(X, b)
`)
	if err != nil {
		t.Fatal(err)
	}
	cfgY, err := rid.ParseString(`
kind relstore
site SY
item Y
  type int
  read   SELECT salary FROM employees WHERE empid = 'y'
  write  UPDATE employees SET salary = $b WHERE empid = 'y'
  insert INSERT INTO employees (empid, salary) VALUES ('y', $b)
  delete DELETE FROM employees WHERE empid = 'y'
interface WR(Y, b) ->1s W(Y, b)
`)
	if err != nil {
		t.Fatal(err)
	}
	tk := New(Config{Clock: clk, BusLatency: 50 * time.Millisecond})
	if err := tk.AddSite(Site{RID: cfgX, Local: &translator.LocalStores{Rel: dbX}}); err != nil {
		t.Fatal(err)
	}
	if err := tk.AddSite(Site{RID: cfgY, Local: &translator.LocalStores{Rel: dbY}}); err != nil {
		t.Fatal(err)
	}
	// Before Deploy it is rejected.
	if _, _, err := tk.AddInequality(Inequality{X: "X", Y: "Y"}); err == nil {
		t.Fatal("AddInequality before Deploy succeeded")
	}
	if err := tk.Deploy(); err != nil {
		t.Fatal(err)
	}
	if err := tk.Start(); err != nil {
		t.Fatal(err)
	}
	defer tk.Stop()

	xa, ya, err := tk.AddInequality(Inequality{X: "X", Y: "Y", InitX: 0, LimX: 50, LimY: 50, InitY: 100})
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	// The initial values reached the databases through the translators.
	res, _ := dbX.Exec("SELECT salary FROM employees WHERE empid = 'x'")
	if len(res.Rows) != 1 || !res.Rows[0][0].Equal(data.NewInt(0)) {
		t.Fatalf("X db = %v", res.Rows)
	}
	// In-slack increments are local; a limit-crossing one round-trips.
	for i := 0; i < 50; i++ {
		xa.Update(1, nil)
	}
	clk.Advance(time.Second)
	var granted bool
	xa.Update(10, func(ok bool) { granted = ok })
	clk.Advance(5 * time.Second)
	if !granted || xa.Value() != 60 {
		t.Fatalf("granted=%v X=%d", granted, xa.Value())
	}
	if ya.Limit() < xa.Limit() {
		t.Fatalf("limits crossed: Lx=%d Ly=%d", xa.Limit(), ya.Limit())
	}
	// The database mirrors the protocol's value.
	res, _ = dbX.Exec("SELECT salary FROM employees WHERE empid = 'x'")
	if !res.Rows[0][0].Equal(data.NewInt(60)) {
		t.Fatalf("X db = %v", res.Rows)
	}
	// The invariant guarantee is tracked and holds.
	reports := tk.CheckGuarantees()
	found := false
	for _, r := range reports {
		if r.Guarantee == "invariant(X<=Y)" {
			found = true
			if !r.Holds {
				t.Fatalf("invariant: %v", r.Violations)
			}
		}
	}
	if !found {
		t.Fatalf("invariant guarantee not tracked: %v", reports)
	}
	// Bad initial values rejected.
	if _, _, err := tk.AddInequality(Inequality{X: "X", Y: "Y", InitX: 10, LimX: 5, LimY: 50, InitY: 100}); err == nil {
		t.Fatal("bad initial values accepted")
	}
}

func TestUseSpecConfigDriven(t *testing.T) {
	// A deployment driven entirely by a hand-written spec file, including
	// guarantee declarations.
	clk := vclock.NewVirtual(vclock.Epoch)
	dbA := newEmployeesDB(t, "a")
	dbB := newEmployeesDB(t, "b")
	cfgA, _ := rid.ParseString(ridA)
	cfgB, _ := rid.ParseString(ridB)
	spec, err := rule.ParseSpecString(`
site A
site B
item salary1 @ A
item salary2 @ B
rule prop: N(salary1(n), b) ->5s WR(salary2(n), b)
guarantee follows(salary1, salary2)
guarantee metric-leads(salary1, salary2, 15s)
`)
	if err != nil {
		t.Fatal(err)
	}
	tk := New(Config{Clock: clk, BusLatency: 50 * time.Millisecond})
	tk.AddSite(Site{RID: cfgA, Local: &translator.LocalStores{Rel: dbA}})
	tk.AddSite(Site{RID: cfgB, Local: &translator.LocalStores{Rel: dbB}})
	if err := tk.UseSpec(spec); err != nil {
		t.Fatal(err)
	}
	if err := tk.Deploy(); err != nil {
		t.Fatal(err)
	}
	if err := tk.Start(); err != nil {
		t.Fatal(err)
	}
	defer tk.Stop()
	dbA.Exec("INSERT INTO employees VALUES ('e1', 9)")
	clk.Advance(30 * time.Second)
	res, _ := dbB.Exec("SELECT salary FROM employees WHERE empid = 'e1'")
	if len(res.Rows) != 1 || !res.Rows[0][0].Equal(data.NewInt(9)) {
		t.Fatalf("B rows = %v", res.Rows)
	}
	reports := tk.CheckGuarantees()
	if len(reports) != 2 {
		t.Fatalf("reports = %v", reports)
	}
	if !guarantee.AllHold(reports) {
		t.Fatalf("declared guarantees: %v", reports)
	}
	// The failure bookkeeping attributed sites to the declared guarantees.
	shA, _ := tk.Shell("shell-A")
	shA.ReportLogicalFailure("A", "test", errors.New("boom"))
	clk.Advance(time.Second)
	for _, st := range tk.Status() {
		if st.Valid {
			t.Fatalf("guarantee survived a logical failure at A: %+v", st)
		}
	}
	// Bad declared guarantees fail Deploy.
	tk2 := New(Config{Clock: clk})
	cfgA2, _ := rid.ParseString(ridA)
	dbA2 := newEmployeesDB(t, "a2")
	tk2.AddSite(Site{RID: cfgA2, Local: &translator.LocalStores{Rel: dbA2}})
	badSpec := rule.NewSpec()
	badSpec.Guarantees = []string{"nosuch(x, y)"}
	tk2.UseSpec(badSpec)
	if err := tk2.Deploy(); err == nil {
		t.Fatal("bad guarantee deployed")
	}
}

func TestAddReferentialSweep(t *testing.T) {
	clk := vclock.NewVirtual(vclock.Epoch)
	projDB := relstore.New("projects")
	projDB.Exec("CREATE TABLE projects (empid TEXT, proj TEXT, PRIMARY KEY (empid))")
	salDB := relstore.New("salaries")
	salDB.Exec("CREATE TABLE salaries (empid TEXT, amount INT, PRIMARY KEY (empid))")
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
	tk := New(Config{Clock: clk})
	tk.AddSite(Site{RID: projCfg, Local: &translator.LocalStores{Rel: projDB}})
	tk.AddSite(Site{RID: salCfg, Local: &translator.LocalStores{Rel: salDB}})
	// Before Deploy: rejected.
	if _, err := tk.AddReferential(Referential{Ref: "project", Target: "salary"}); err == nil {
		t.Fatal("AddReferential before Deploy succeeded")
	}
	if err := tk.Deploy(); err != nil {
		t.Fatal(err)
	}
	if err := tk.Start(); err != nil {
		t.Fatal(err)
	}
	defer tk.Stop()
	sw, err := tk.AddReferential(Referential{Ref: "project", Target: "salary", Period: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	// One matched record, one orphan.
	salDB.Exec("INSERT INTO salaries VALUES ('e1', 100)")
	projDB.Exec("INSERT INTO projects VALUES ('e1', 'apollo')")
	projDB.Exec("INSERT INTO projects VALUES ('e2', 'zeus')")
	tk.RecordSpontaneous("P", data.Item("project", data.NewString("e1")), data.NullValue, data.NewString("apollo"))
	tk.RecordSpontaneous("P", data.Item("project", data.NewString("e2")), data.NullValue, data.NewString("zeus"))
	tk.RecordSpontaneous("S", data.Item("salary", data.NewString("e1")), data.NullValue, data.NewInt(100))
	clk.Advance(25 * time.Hour)
	if res, err := projDB.Exec("SELECT * FROM projects"); err != nil || len(res.Rows) != 1 {
		t.Fatalf("projects rows = %d (%v)", len(res.Rows), err)
	}
	if _, orphans, deleted := sw.Stats(); orphans != 1 || deleted != 1 {
		t.Fatalf("stats = %d, %d", orphans, deleted)
	}
	clk.Advance(3 * time.Hour)
	// The guarantee is tracked and holds.
	for _, r := range tk.CheckGuarantees() {
		if !r.Holds {
			t.Fatalf("%s: %v", r.Guarantee, r.Violations)
		}
	}
	// Unknown bases are rejected.
	if _, err := tk.AddReferential(Referential{Ref: "ghost", Target: "salary"}); err == nil {
		t.Fatal("unknown ref accepted")
	}
}

func TestResetRestoresGuaranteeValidity(t *testing.T) {
	tk, clk, _, _ := buildPayroll(t, "auto")
	shA, _ := tk.Shell("shell-A")
	shA.ReportLogicalFailure("A", "test", errors.New("catastrophe"))
	clk.Advance(time.Second)
	invalid := 0
	for _, st := range tk.Status() {
		if !st.Valid {
			invalid++
		}
	}
	if invalid == 0 {
		t.Fatal("no guarantees invalidated")
	}
	// The Section 5 reset: after repair, validity is restored.
	tk.Reset()
	for _, st := range tk.Status() {
		if !st.Valid {
			t.Fatalf("guarantee still invalid after reset: %+v", st)
		}
	}
}

func TestNoSpontaneousWritePromiseMonitored(t *testing.T) {
	// Site B promises "no spontaneous writes" (Ws(salary2(n), b) → F).
	// CM-initiated propagation must not trip it, but a rogue local write
	// at B must surface as a violated F obligation in the trace check.
	clk := vclock.NewVirtual(vclock.Epoch)
	dbA := newEmployeesDB(t, "a")
	dbB := newEmployeesDB(t, "b")
	cfgA, _ := rid.ParseString(ridA)
	cfgB, err := rid.ParseString(ridB + "interface Ws(salary2(n), b) ->0s F\n")
	if err != nil {
		t.Fatal(err)
	}
	tk := New(Config{Clock: clk, BusLatency: 50 * time.Millisecond})
	tk.AddSite(Site{RID: cfgA, Local: &translator.LocalStores{Rel: dbA}})
	tk.AddSite(Site{RID: cfgB, Local: &translator.LocalStores{Rel: dbB}})
	tk.AddCopy(CopyConstraint{X: "salary1", Y: "salary2", Arity: 1, Strategy: "notify"})
	if err := tk.Deploy(); err != nil {
		t.Fatal(err)
	}
	if err := tk.Start(); err != nil {
		t.Fatal(err)
	}
	defer tk.Stop()

	// Legitimate CM propagation: no violations.
	dbA.Exec("INSERT INTO employees VALUES ('e1', 100)")
	clk.Advance(5 * time.Second)
	if vs := tk.CheckTrace(); len(vs) != 0 {
		t.Fatalf("CM propagation tripped the promise: %v", vs)
	}
	// A rogue local application writes the replica directly.
	dbB.Exec("UPDATE employees SET salary = 999 WHERE empid = 'e1'")
	clk.Advance(5 * time.Second)
	vs := tk.CheckTrace()
	found := false
	for _, v := range vs {
		if v.Property == 6 {
			found = true
		}
	}
	if !found {
		t.Fatalf("rogue write not flagged: %v", vs)
	}
}
