package guarantee

import (
	"math/rand"
	"testing"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/event"
	"cmtk/internal/rule"
	"cmtk/internal/trace"
	"cmtk/internal/vclock"
)

var (
	itemX = data.Item("X")
	itemY = data.Item("Y")
)

func at(s int) time.Time { return vclock.Epoch.Add(time.Duration(s) * time.Second) }

func write(tr *trace.Trace, sec int, item data.ItemName, v data.Value) {
	tr.Append(&event.Event{Time: at(sec), Site: "s", Desc: event.W(item, v)})
}

// propagated builds a trace where every X write is copied to Y after lag
// seconds: the well-behaved notify+write scenario.
func propagated(vals []int64, lag int) *trace.Trace {
	tr := trace.New(nil)
	for i, v := range vals {
		write(tr, i*10, itemX, data.NewInt(v))
		write(tr, i*10+lag, itemY, data.NewInt(v))
	}
	// Horizon event.
	write(tr, len(vals)*10+100, data.Item("Z"), data.NewInt(0))
	return tr
}

func TestFollowsHolds(t *testing.T) {
	tr := propagated([]int64{1, 2, 3}, 3)
	rep := Follows{X: "X", Y: "Y"}.Check(tr)
	if !rep.Holds || rep.Checked == 0 {
		t.Fatalf("report: %+v", rep)
	}
}

func TestFollowsViolated(t *testing.T) {
	tr := trace.New(nil)
	write(tr, 0, itemX, data.NewInt(1))
	write(tr, 1, itemY, data.NewInt(99)) // Y invents a value
	rep := Follows{X: "X", Y: "Y"}.Check(tr)
	if rep.Holds {
		t.Fatalf("follows held: %+v", rep)
	}
}

func TestFollowsInitialValueCounts(t *testing.T) {
	// Y starts equal to X's initial value: no violation.
	init := data.Interpretation{"X": data.NewInt(5), "Y": data.NewInt(5)}
	tr := trace.New(init)
	write(tr, 1, itemX, data.NewInt(6))
	write(tr, 2, itemY, data.NewInt(6))
	rep := Follows{X: "X", Y: "Y"}.Check(tr)
	if !rep.Holds {
		t.Fatalf("report: %+v", rep)
	}
}

func TestLeadsHolds(t *testing.T) {
	tr := propagated([]int64{1, 2, 3}, 3)
	rep := Leads{X: "X", Y: "Y", Settle: 10 * time.Second}.Check(tr)
	if !rep.Holds || rep.Checked != 3 {
		t.Fatalf("report: %+v", rep)
	}
}

func TestLeadsViolatedByMissedUpdate(t *testing.T) {
	// X takes 1,2,3 but only 1 and 3 reach Y (polling missed 2).
	tr := trace.New(nil)
	write(tr, 0, itemX, data.NewInt(1))
	write(tr, 5, itemY, data.NewInt(1))
	write(tr, 10, itemX, data.NewInt(2))
	write(tr, 11, itemX, data.NewInt(3))
	write(tr, 15, itemY, data.NewInt(3))
	write(tr, 1000, data.Item("Z"), data.NewInt(0))
	rep := Leads{X: "X", Y: "Y", Settle: 60 * time.Second}.Check(tr)
	if rep.Holds {
		t.Fatalf("leads held despite missed update: %+v", rep)
	}
}

func TestLeadsSettleExcusesPending(t *testing.T) {
	tr := trace.New(nil)
	write(tr, 0, itemX, data.NewInt(1))
	// No propagation, but trace ends immediately: within settle.
	rep := Leads{X: "X", Y: "Y", Settle: 60 * time.Second}.Check(tr)
	if !rep.Holds {
		t.Fatalf("report: %+v", rep)
	}
}

func TestStrictlyFollowsHolds(t *testing.T) {
	tr := propagated([]int64{1, 2, 3, 2}, 3)
	rep := StrictlyFollows{X: "X", Y: "Y"}.Check(tr)
	if !rep.Holds {
		t.Fatalf("report: %+v", rep)
	}
}

func TestStrictlyFollowsViolatedByReorder(t *testing.T) {
	tr := trace.New(nil)
	write(tr, 0, itemX, data.NewInt(1))
	write(tr, 1, itemX, data.NewInt(2))
	// Y sees them out of order.
	write(tr, 5, itemY, data.NewInt(2))
	write(tr, 6, itemY, data.NewInt(1))
	rep := StrictlyFollows{X: "X", Y: "Y"}.Check(tr)
	if rep.Holds {
		t.Fatalf("strict order held despite reorder: %+v", rep)
	}
	// Plain follows still holds: both values were X's.
	if rep2 := (Follows{X: "X", Y: "Y"}).Check(tr); !rep2.Holds {
		t.Fatalf("follows should hold: %+v", rep2)
	}
}

func TestStrictlyFollowsSkippedValuesOK(t *testing.T) {
	// Y may miss values (polling) as long as order is preserved:
	// guarantee (3) holds under polling per Section 4.2.3.
	tr := trace.New(nil)
	write(tr, 0, itemX, data.NewInt(1))
	write(tr, 1, itemX, data.NewInt(2))
	write(tr, 2, itemX, data.NewInt(3))
	write(tr, 5, itemY, data.NewInt(1))
	write(tr, 6, itemY, data.NewInt(3))
	rep := StrictlyFollows{X: "X", Y: "Y"}.Check(tr)
	if !rep.Holds {
		t.Fatalf("report: %+v", rep)
	}
}

func TestMetricFollows(t *testing.T) {
	tr := propagated([]int64{1, 2, 3}, 3)
	if rep := (MetricFollows{X: "X", Y: "Y", Kappa: 5 * time.Second}).Check(tr); !rep.Holds {
		t.Fatalf("kappa=5s: %+v", rep)
	}
	// With kappa=1s the 3s lag is too stale... but note X still holds the
	// value at propagation time (interval overlap), so it holds.
	if rep := (MetricFollows{X: "X", Y: "Y", Kappa: time.Second}).Check(tr); !rep.Holds {
		t.Fatalf("kappa=1s with overlapping interval: %+v", rep)
	}
}

func TestMetricFollowsViolatedByStaleValue(t *testing.T) {
	tr := trace.New(nil)
	write(tr, 0, itemX, data.NewInt(1))
	write(tr, 10, itemX, data.NewInt(2))  // X moves on at t=10
	write(tr, 100, itemY, data.NewInt(1)) // Y picks up the old value at t=100
	rep := MetricFollows{X: "X", Y: "Y", Kappa: 5 * time.Second}.Check(tr)
	if rep.Holds {
		t.Fatalf("metric follows held for stale value: %+v", rep)
	}
}

func TestMetricLeads(t *testing.T) {
	tr := propagated([]int64{1, 2, 3}, 3)
	if rep := (MetricLeads{X: "X", Y: "Y", Kappa: 5 * time.Second}).Check(tr); !rep.Holds {
		t.Fatalf("kappa=5s: %+v", rep)
	}
	if rep := (MetricLeads{X: "X", Y: "Y", Kappa: 2 * time.Second}).Check(tr); rep.Holds {
		t.Fatalf("kappa=2s held despite 3s lag: %+v", rep)
	}
}

func TestParameterizedFamilyGuarantee(t *testing.T) {
	// salary1(n) = salary2(n) for all n: one key propagates, the other is
	// lost.
	e7 := data.NewString("e7")
	e9 := data.NewString("e9")
	tr := trace.New(nil)
	write(tr, 0, data.Item("salary1", e7), data.NewInt(100))
	write(tr, 2, data.Item("salary2", e7), data.NewInt(100))
	write(tr, 5, data.Item("salary1", e9), data.NewInt(200))
	write(tr, 1000, data.Item("Z"), data.NewInt(0))
	follows := Follows{X: "salary1", Y: "salary2"}.Check(tr)
	if !follows.Holds {
		t.Fatalf("follows: %+v", follows)
	}
	leads := Leads{X: "salary1", Y: "salary2", Settle: 60 * time.Second}.Check(tr)
	if leads.Holds {
		t.Fatalf("leads held despite lost e9 update: %+v", leads)
	}
}

func TestInvariant(t *testing.T) {
	pred, err := rule.ParseExpr("X <= Y")
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(data.Interpretation{"X": data.NewInt(0), "Y": data.NewInt(10)})
	write(tr, 1, itemX, data.NewInt(5))
	write(tr, 2, itemY, data.NewInt(20))
	rep := Invariant{Label: "X<=Y", Pred: pred}.Check(tr)
	if !rep.Holds {
		t.Fatalf("report: %+v", rep)
	}
	write(tr, 3, itemX, data.NewInt(99))
	rep = Invariant{Label: "X<=Y", Pred: pred}.Check(tr)
	if rep.Holds {
		t.Fatalf("invariant held after violation: %+v", rep)
	}
}

func TestExistsWithin(t *testing.T) {
	i1 := data.NewString("i1")
	g := ExistsWithin{Ref: "project", Target: "salary", Kappa: 10 * time.Second}
	// Violation window of 5s: inside kappa.
	tr := trace.New(nil)
	write(tr, 0, data.Item("project", i1), data.NewInt(1))
	write(tr, 5, data.Item("salary", i1), data.NewInt(100))
	write(tr, 100, data.Item("Z"), data.NewInt(0))
	if rep := g.Check(tr); !rep.Holds {
		t.Fatalf("5s window violated 10s kappa: %+v", rep)
	}
	// Violation window of 20s: exceeds kappa.
	tr2 := trace.New(nil)
	write(tr2, 0, data.Item("project", i1), data.NewInt(1))
	write(tr2, 20, data.Item("salary", i1), data.NewInt(100))
	write(tr2, 100, data.Item("Z"), data.NewInt(0))
	if rep := g.Check(tr2); rep.Holds {
		t.Fatalf("20s window passed 10s kappa: %+v", rep)
	}
	// Orphan resolved by deleting the project record (write null).
	tr3 := trace.New(nil)
	write(tr3, 0, data.Item("project", i1), data.NewInt(1))
	write(tr3, 8, data.Item("project", i1), data.NullValue)
	write(tr3, 100, data.Item("Z"), data.NewInt(0))
	if rep := g.Check(tr3); !rep.Holds {
		t.Fatalf("deletion did not resolve: %+v", rep)
	}
	// Unresolved at end of trace, longer than kappa.
	tr4 := trace.New(nil)
	write(tr4, 0, data.Item("project", i1), data.NewInt(1))
	write(tr4, 100, data.Item("Z"), data.NewInt(0))
	if rep := g.Check(tr4); rep.Holds {
		t.Fatalf("open violation passed: %+v", rep)
	}
}

func TestMonitorFlag(t *testing.T) {
	flag, tb := data.Item("Flag"), data.Item("Tb")
	g := MonitorFlag{Flag: flag, Tb: tb, X: itemX, Y: itemY, Kappa: 2 * time.Second}
	tr := trace.New(data.Interpretation{"X": data.NewInt(1), "Y": data.NewInt(1)})
	// CM observes equality from t=0, sets Tb=0 and Flag=true at t=5.
	write(tr, 5, tb, vclock.TimeValue(at(0)))
	write(tr, 5, flag, data.NewBool(true))
	if rep := g.Check(tr); !rep.Holds {
		t.Fatalf("monitor: %+v", rep)
	}
	// Now X diverges at t=10 while Flag stays true; a Flag=true state at
	// t=20 claims equality over [0, 18] — false.
	write(tr, 10, itemX, data.NewInt(2))
	write(tr, 20, tb, vclock.TimeValue(at(0)))
	if rep := g.Check(tr); rep.Holds {
		t.Fatalf("monitor held despite divergence: %+v", rep)
	}
}

func TestMonitorFlagKappaExcusesRecentDivergence(t *testing.T) {
	flag, tb := data.Item("Flag"), data.Item("Tb")
	g := MonitorFlag{Flag: flag, Tb: tb, X: itemX, Y: itemY, Kappa: 30 * time.Second}
	tr := trace.New(data.Interpretation{"X": data.NewInt(1), "Y": data.NewInt(1)})
	write(tr, 5, tb, vclock.TimeValue(at(0)))
	write(tr, 5, flag, data.NewBool(true))
	// X diverges at t=10; Flag still true at t=10..  The claim at t=10 is
	// equality over [0, -20] — an empty interval, so it holds.
	write(tr, 10, itemX, data.NewInt(2))
	if rep := g.Check(tr); !rep.Holds {
		t.Fatalf("monitor: %+v", rep)
	}
}

func TestPeriodic(t *testing.T) {
	pred, err := rule.ParseExpr("B1 = B2")
	if err != nil {
		t.Fatal(err)
	}
	// Window 17:15 -> 08:00 next day.
	g := Periodic{Label: "banking", Pred: pred, From: 17*time.Hour + 15*time.Minute, To: 8 * time.Hour}
	b1, b2 := data.Item("B1"), data.Item("B2")
	tr := trace.New(data.Interpretation{"B1": data.NewInt(0), "B2": data.NewInt(0)})
	// Daytime divergence at 10:00 (outside window): fine.
	tr.Append(&event.Event{Time: vclock.Epoch.Add(10 * time.Hour), Site: "s", Desc: event.W(b1, data.NewInt(5))})
	// Batch propagation at 17:10 (outside window): fine.
	tr.Append(&event.Event{Time: vclock.Epoch.Add(17*time.Hour + 10*time.Minute), Site: "s", Desc: event.W(b2, data.NewInt(5))})
	// Horizon next day 09:00.
	tr.Append(&event.Event{Time: vclock.Epoch.Add(33 * time.Hour), Site: "s", Desc: event.W(data.Item("Z"), data.NewInt(0))})
	if rep := g.Check(tr); !rep.Holds {
		t.Fatalf("periodic: %+v", rep)
	}
	// Divergence inside the window violates.
	tr.Append(&event.Event{Time: vclock.Epoch.Add(42 * time.Hour), Site: "s", Desc: event.W(b1, data.NewInt(9))})
	if rep := g.Check(tr); rep.Holds {
		t.Fatalf("periodic held despite in-window divergence: %+v", rep)
	}
}

func TestPeriodicWindowMath(t *testing.T) {
	g := Periodic{From: 17 * time.Hour, To: 8 * time.Hour}
	if !g.inWindow(vclock.Epoch.Add(18 * time.Hour)) {
		t.Error("18:00 not in 17:00-08:00 window")
	}
	if !g.inWindow(vclock.Epoch.Add(31 * time.Hour)) {
		t.Error("07:00 next day not in window")
	}
	if g.inWindow(vclock.Epoch.Add(12 * time.Hour)) {
		t.Error("12:00 in window")
	}
	day := Periodic{From: 9 * time.Hour, To: 17 * time.Hour}
	if !day.inWindow(vclock.Epoch.Add(10*time.Hour)) || day.inWindow(vclock.Epoch.Add(20*time.Hour)) {
		t.Error("non-wrapping window math broken")
	}
}

func TestCheckAllAndReportString(t *testing.T) {
	tr := propagated([]int64{1, 2}, 2)
	reports := CheckAll(tr,
		Follows{X: "X", Y: "Y"},
		Leads{X: "X", Y: "Y", Settle: 10 * time.Second},
		StrictlyFollows{X: "X", Y: "Y"},
	)
	if len(reports) != 3 || !AllHold(reports) {
		t.Fatalf("reports: %v", reports)
	}
	for _, r := range reports {
		if r.String() == "" || r.Formula == "" {
			t.Fatalf("bad report rendering: %+v", r)
		}
	}
	// A failing report renders VIOLATED.
	trBad := trace.New(nil)
	write(trBad, 0, itemY, data.NewInt(9))
	rep := Follows{X: "X", Y: "Y"}.Check(trBad)
	if rep.Holds || rep.String() == "" {
		t.Fatalf("bad violation rendering: %+v", rep)
	}
	if AllHold([]Report{rep}) {
		t.Fatal("AllHold true with violation")
	}
}

func TestTimeValueRoundTrip(t *testing.T) {
	for _, d := range []time.Duration{0, time.Second, time.Hour, 26 * time.Hour} {
		v := vclock.TimeValue(vclock.Epoch.Add(d))
		got, ok := ValueTime(v)
		if !ok || !got.Equal(vclock.Epoch.Add(d)) {
			t.Fatalf("round trip %v -> %v, %v", d, got, ok)
		}
	}
	if _, ok := ValueTime(data.NewString("x")); ok {
		t.Fatal("string decoded as time")
	}
}

func TestViolationCap(t *testing.T) {
	tr := trace.New(nil)
	for i := 0; i < 100; i++ {
		write(tr, i, itemY, data.NewInt(int64(1000+i)))
	}
	rep := Follows{X: "X", Y: "Y"}.Check(tr)
	if rep.Holds {
		t.Fatal("held")
	}
	if len(rep.Violations) > maxViolations {
		t.Fatalf("violations uncapped: %d", len(rep.Violations))
	}
}

func TestParseGuarantees(t *testing.T) {
	cases := []struct {
		src  string
		want string // Name() of the parsed guarantee
	}{
		{"follows(salary1, salary2)", "follows(salary1,salary2)"},
		{"leads(salary1, salary2)", "leads(salary1,salary2)"},
		{"leads(salary1, salary2, 30s)", "leads(salary1,salary2)"},
		{"strictly-follows(x, y)", "strictly-follows(x,y)"},
		{"metric-follows(x, y, 15s)", "metric-follows(x,y,15s)"},
		{"metric-leads(x, y, 15s)", "metric-leads(x,y,15s)"},
		{"invariant(X <= Y)", "invariant(X <= Y)"},
		{"exists-within(project, salary, 24h)", "exists-within(project,salary,24h0m0s)"},
		{"periodic(B1 = B2, 17h15m, 8h)", "periodic(B1 = B2)"},
		{`monitor(Flag, Tb, X, Y, 10s)`, "monitor(X,Y)"},
	}
	for _, c := range cases {
		g, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		if g.Name() != c.want {
			t.Errorf("Parse(%q).Name() = %q, want %q", c.src, g.Name(), c.want)
		}
		if g.Formula() == "" {
			t.Errorf("Parse(%q): empty formula", c.src)
		}
	}
}

func TestParseGuaranteeSemantics(t *testing.T) {
	// A parsed leads guarantee behaves like a constructed one.
	g, err := Parse("leads(X, Y, 60s)")
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(nil)
	write(tr, 0, itemX, data.NewInt(1))
	write(tr, 5, itemY, data.NewInt(1))
	write(tr, 10, itemX, data.NewInt(2)) // never propagated
	write(tr, 1000, data.Item("Z"), data.NewInt(0))
	if rep := g.Check(tr); rep.Holds {
		t.Fatal("parsed leads missed the lost value")
	}
}

func TestParseGuaranteeErrors(t *testing.T) {
	bad := []string{
		"",
		"follows",
		"follows(x)",
		"follows(x, y, z)",
		"nosuch(x, y)",
		"metric-follows(x, y)",
		"metric-follows(x, y, nonsense)",
		"invariant(1 +)",
		"exists-within(a, b)",
		"periodic(X = Y, 1h)",
		"monitor(F, T, X, Y)",
		"leads(, y)",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

// Property: for a replica that copies the primary with a fixed lag L,
// MetricLeads holds exactly when kappa >= L.
func TestQuickMetricLeadsThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 60; iter++ {
		lag := time.Duration(rng.Intn(9)+1) * time.Second
		n := rng.Intn(8) + 2
		tr := trace.New(nil)
		for i := 0; i < n; i++ {
			base := i * 30
			write(tr, base, itemX, data.NewInt(int64(1000+i)))
			tr.Append(&event.Event{Time: at(base).Add(lag), Site: "s",
				Desc: event.W(itemY, data.NewInt(int64(1000+i)))})
		}
		write(tr, n*30+300, data.Item("Z"), data.NewInt(0))
		holds := MetricLeads{X: "X", Y: "Y", Kappa: lag}.Check(tr)
		if !holds.Holds {
			t.Fatalf("iter %d: kappa = lag = %v failed: %+v", iter, lag, holds)
		}
		fails := MetricLeads{X: "X", Y: "Y", Kappa: lag - time.Millisecond}.Check(tr)
		if fails.Holds && fails.Checked > 0 {
			t.Fatalf("iter %d: kappa just under lag %v held over %d obligations", iter, lag, fails.Checked)
		}
	}
}

// Property: follows and leads are duals on reversed roles — if Y copies X
// faithfully then follows(X,Y) holds, and follows(Y,X) holds only when X
// introduced no values Y missed... which with full copying means both
// directions only differ by the final pending value.
func TestQuickFollowsOnCopiedStream(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 40; iter++ {
		tr := trace.New(nil)
		count := rng.Intn(10) + 1
		for i := 0; i < count; i++ {
			v := data.NewInt(int64(rng.Intn(5)))
			write(tr, i*10, itemX, v)
			write(tr, i*10+1, itemY, v)
		}
		if rep := (Follows{X: "X", Y: "Y"}).Check(tr); !rep.Holds {
			t.Fatalf("iter %d: follows failed on a faithful copy: %+v", iter, rep)
		}
		if rep := (StrictlyFollows{X: "X", Y: "Y"}).Check(tr); !rep.Holds {
			t.Fatalf("iter %d: strictly-follows failed on a faithful copy: %+v", iter, rep)
		}
	}
}

// TestCheckAllSharesIndex pins the shared family index: the five
// guarantees of the notify strategy over a 1200-event, 128-key trace stay
// under 100 allocations per event (each used to rebuild and insertion-sort
// the family list for itself: 382), and checking them together allocates
// less than checking them one by one — so an edit that quietly rebuilds the
// index per guarantee fails here, not in a benchmark.
func TestCheckAllSharesIndex(t *testing.T) {
	const updates, keys, kappa = 300, 128, 10 * time.Second
	tr := trace.New(nil)
	for i := 0; i < updates; i++ {
		k, v := data.NewInt(int64(i*37%keys)), data.NewInt(int64(1000+i))
		x, y := data.Item("salary1", k), data.Item("salary2", k)
		for j, d := range []event.Desc{event.W(x, v), event.N(x, v), event.WR(y, v), event.W(y, v)} {
			tr.Append(&event.Event{Time: at(i).Add(time.Duration(j) * time.Millisecond), Site: "s", Desc: d})
		}
	}
	write(tr, updates+60, data.Item("Z"), data.NewInt(0))
	gs := []Guarantee{
		Follows{X: "salary1", Y: "salary2"},
		Leads{X: "salary1", Y: "salary2", Settle: kappa},
		StrictlyFollows{X: "salary1", Y: "salary2"},
		MetricFollows{X: "salary1", Y: "salary2", Kappa: kappa},
		MetricLeads{X: "salary1", Y: "salary2", Kappa: kappa},
	}
	if reps := CheckAll(tr, gs...); !AllHold(reps) {
		t.Fatalf("the trace does not hold: %+v", reps)
	}
	together := testing.AllocsPerRun(3, func() { CheckAll(tr, gs...) })
	if perEvent := together / float64(tr.Len()); perEvent >= 100 {
		t.Errorf("CheckAll of five guarantees: %.1f allocations per event, want under 100", perEvent)
	}
	apart := 0.0
	for _, g := range gs {
		apart += testing.AllocsPerRun(3, func() { g.Check(tr) })
	}
	if together >= apart {
		t.Errorf("CheckAll allocates %.0f, five single checks %.0f: the index is not shared", together, apart)
	}
	t.Logf("%.1f allocations per event together, %.1f apart", together/float64(tr.Len()), apart/float64(tr.Len()))
}
