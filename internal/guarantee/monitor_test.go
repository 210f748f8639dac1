package guarantee

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/event"
	"cmtk/internal/rule"
	"cmtk/internal/trace"
)

func monitoredSet() []Guarantee {
	pred, err := rule.ParseExpr("X >= 0")
	if err != nil {
		panic(err)
	}
	return []Guarantee{
		MetricFollows{X: "X", Y: "Y", Kappa: 5 * time.Second},
		MetricLeads{X: "X", Y: "Y", Kappa: 5 * time.Second},
		ExistsWithin{Ref: "X", Target: "Y", Kappa: 8 * time.Second},
		Invariant{Label: "x-nonneg", Pred: pred},
	}
}

// advanceEvery replays the source trace into a fresh one in chunks,
// advancing the monitor after each chunk; between chunks it compacts at
// the monitor's horizon (minus hold) when compact is set.  Returns the
// replayed trace.
func replayMonitored(t *testing.T, src *trace.Trace, m *Monitor, chunk int, compact bool) *trace.Trace {
	t.Helper()
	tr := trace.New(src.Initial())
	for i, e := range src.Events() {
		tr.Append(&event.Event{Time: e.Time, Site: e.Site, Host: e.Host, Desc: e.Desc, Rule: e.Rule})
		if (i+1)%chunk == 0 {
			m.Advance(tr)
			if h, ok := m.Horizon(); compact && ok {
				tr.CompactBefore(h, 0)
			}
		}
	}
	return tr
}

// TestMonitorMatchesBatch the verdicts of the compacted Monitor
// (obligations discharged advance by advance) and of CheckAll (the same
// engines in one shot, plus the two unbounded directions) must both equal
// the oracle's over the full history, for holding and violated
// executions alike.
func TestMonitorMatchesBatch(t *testing.T) {
	cases := map[string]func() *trace.Trace{
		"holds": func() *trace.Trace { return propagated([]int64{1, 2, 3, 4, 5, 6}, 3) },
		"late-propagation": func() *trace.Trace {
			tr := propagated([]int64{1, 2, 3}, 3)
			write(tr, 400, itemX, data.NewInt(9))
			write(tr, 409, itemY, data.NewInt(9)) // misses both κ=5s windows
			write(tr, 500, data.Item("Z"), data.NewInt(0))
			return tr
		},
		"invented-value": func() *trace.Trace {
			tr := propagated([]int64{1, 2}, 3)
			write(tr, 300, itemY, data.NewInt(77)) // X never held 77
			write(tr, 400, data.Item("Z"), data.NewInt(0))
			return tr
		},
	}
	for name, mk := range cases {
		for _, compact := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/compact=%v", name, compact), func(t *testing.T) {
				src := mk()
				want := oracleAll(src, monitoredSet()...)
				m, err := NewMonitor(monitoredSet()...)
				if err != nil {
					t.Fatal(err)
				}
				tr := replayMonitored(t, src, m, 4, compact)
				got := m.Reports(tr)
				if !EqualVerdicts(want, got) {
					t.Fatalf("verdicts diverged:\noracle:  %+v\nmonitor: %+v", want, got)
				}
				if compact {
					if pe, _ := tr.Pruned(); pe == 0 {
						t.Fatal("compaction pruned nothing; test exercised nothing")
					}
				}
				// Reports must be repeatable (non-destructive).
				if again := m.Reports(tr); !EqualVerdicts(got, again) {
					t.Fatal("second Reports call diverged")
				}
				all := append(monitoredSet(), Follows{X: "X", Y: "Y"}, Leads{X: "X", Y: "Y", Settle: 5 * time.Second})
				if want, got := oracleAll(src, all...), CheckAll(src, all...); !EqualVerdicts(want, got) {
					t.Fatalf("one-shot verdicts diverged:\noracle:   %+v\nCheckAll: %+v", want, got)
				}
			})
		}
	}
}

// TestMonitorEmptyTraceInitialState the initial-state obligations are
// decided whether or not the trace holds an event: a monitor over a trace
// that starts in a violating state says what CheckAll says.
func TestMonitorEmptyTraceInitialState(t *testing.T) {
	pred, err := rule.ParseExpr("X <= Y")
	if err != nil {
		t.Fatal(err)
	}
	gs := []Guarantee{
		Invariant{Label: "X<=Y", Pred: pred},
		ExistsWithin{Ref: "X", Target: "Z", Kappa: time.Second},
	}
	tr := trace.New(data.Interpretation{"X": data.NewInt(5), "Y": data.NewInt(3)})
	m, err := NewMonitor(gs...)
	if err != nil {
		t.Fatal(err)
	}
	m.Advance(tr)
	got := m.Reports(tr)
	if inv := got[0]; inv.Holds || inv.Checked != 1 || inv.Violated != 1 {
		t.Fatalf("invariant over a violating initial state: %+v", inv)
	}
	if ew := got[1]; ew.Checked != 1 {
		t.Fatalf("exists-within never considered the initial state: %+v", ew)
	}
	if want := oracleAll(tr, gs...); !EqualVerdicts(want, got) {
		t.Fatalf("verdicts diverged:\noracle:  %+v\nmonitor: %+v", want, got)
	}
	if batch := CheckAll(tr, gs...); !EqualVerdicts(batch, got) {
		t.Fatalf("verdicts diverged:\nCheckAll: %+v\nmonitor:  %+v", batch, got)
	}
}

// TestEqualVerdictsPastCap two reports of the same execution stay equal
// when more obligations are violated than descriptions are kept: one
// shot keeps the first key's violations first, the monitor keeps the
// first rounds of every key, and only the exact counts can compare.
func TestEqualVerdictsPastCap(t *testing.T) {
	g := MetricFollows{X: "X", Y: "Y", Kappa: time.Second}
	m, err := NewMonitor(g)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(nil)
	for round := 0; round < 12; round++ {
		for k := int64(1); k <= 2; k++ {
			write(tr, round*10, data.Item("Y", data.NewInt(k)), data.NewInt(int64(1000+round)))
		}
		m.Advance(tr)
	}
	batch, mon := CheckAll(tr, g), m.Reports(tr)
	for _, r := range [][]Report{batch, mon} {
		if r[0].Holds || r[0].Checked != 24 || r[0].Violated != 24 || len(r[0].Violations) != maxViolations {
			t.Fatalf("want 24 checked, 24 violated, %d shown: %+v", maxViolations, r[0])
		}
	}
	if slices.Equal(batch[0].Violations, mon[0].Violations) {
		t.Fatal("both sides kept the same descriptions; the test exercises nothing")
	}
	if !EqualVerdicts(batch, mon) {
		t.Fatalf("equal verdicts compare unequal past the cap:\nCheckAll: %+v\nmonitor:  %+v", batch, mon)
	}
	if want := oracleAll(tr, g); !EqualVerdicts(want, batch) {
		t.Fatalf("verdicts diverged:\noracle:   %+v\nCheckAll: %+v", want, batch)
	}
	if got := batch[0].String(); got != "metric-follows(X,Y,1s): VIOLATED (24 violated, 16 shown) over 24 obligations" {
		t.Fatalf("String() = %q", got)
	}
	// A count that differs is still a difference.
	mon[0].Violated--
	if EqualVerdicts(batch, mon) {
		t.Fatal("reports with different violation counts compare equal")
	}
}

// TestResumePreViolatedBlob a handoff written before Report.Violated
// existed carries only the capped strings; the count is recovered from
// them.
func TestResumePreViolatedBlob(t *testing.T) {
	g := MetricFollows{X: "X", Y: "Y", Kappa: time.Second}
	m, _ := NewMonitor(g)
	tr := trace.New(nil)
	write(tr, 0, itemY, data.NewInt(7))
	write(tr, 10, itemY, data.NewInt(8))
	m.Advance(tr)
	blob, err := m.Handoff()
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Replace(blob, []byte(`"Violated":1,`), nil, 1)
	if bytes.Equal(old, blob) {
		t.Fatalf("blob carries no count to strip: %s", blob)
	}
	m2, _ := NewMonitor(g)
	if err := m2.Resume(old); err != nil {
		t.Fatal(err)
	}
	if want, got := m.Reports(tr), m2.Reports(tr); !EqualVerdicts(want, got) {
		t.Fatalf("count not recovered:\nbefore: %+v\nafter:  %+v", want, got)
	}
}

// TestMonitorRejectsUnbounded the unbounded forms cannot be monitored
// incrementally and must be rejected at registration, naming the
// missing window; the four windowed forms are accepted.
func TestMonitorRejectsUnbounded(t *testing.T) {
	pred, err := rule.ParseExpr("X >= 0")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []Guarantee{
		Follows{X: "X", Y: "Y"},
		Leads{X: "X", Y: "Y", Settle: time.Second},
		StrictlyFollows{X: "X", Y: "Y"},
		MonitorFlag{X: itemX, Y: itemY, Flag: data.Item("F"), Tb: data.Item("Tb"), Kappa: time.Second},
		Periodic{Label: "open", Pred: pred, From: 9 * time.Hour, To: 17 * time.Hour},
	} {
		if err := (&Monitor{}).Register(g); err == nil || !strings.Contains(err.Error(), g.Name()+" has no bounded window") {
			t.Errorf("%s: registration returned %v, want a no-bounded-window rejection", g.Name(), err)
		}
	}
	m := &Monitor{}
	for _, g := range monitoredSet() {
		if err := m.Register(g); err != nil {
			t.Errorf("%s: registration refused: %v", g.Name(), err)
		}
	}
	if len(m.entries) != 4 {
		t.Fatalf("monitor holds %d guarantees, want the 4 windowed forms", len(m.entries))
	}
}

// TestMonitorHorizonAdvances the horizon must trail the trace end by at
// most the widest retention lookback and move forward monotonically.
func TestMonitorHorizonAdvances(t *testing.T) {
	m, err := NewMonitor(monitoredSet()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Horizon(); ok {
		t.Fatal("horizon valid before any Advance")
	}
	tr := trace.New(nil)
	var prev time.Time
	for i := 0; i < 30; i++ {
		write(tr, i*10, itemX, data.NewInt(int64(i)))
		write(tr, i*10+3, itemY, data.NewInt(int64(i)))
		m.Advance(tr)
		h, ok := m.Horizon()
		if !ok {
			t.Fatal("no horizon after Advance")
		}
		if h.Before(prev) {
			t.Fatalf("horizon moved backwards: %v -> %v", prev, h)
		}
		// The widest lookback here is metric-leads' 2κ = 10s.
		if lag := tr.End().Sub(h); lag > 10*time.Second {
			t.Fatalf("horizon lags end by %v", lag)
		}
		prev = h
	}
}

// TestMonitorHandoffResume pending obligations survive the
// export/import path a rebalance uses: verdicts after a mid-run handoff
// equal the oracle's verdicts, and re-registered windows do not re-open
// discharged obligations (Checked counts stay exact).
func TestMonitorHandoffResume(t *testing.T) {
	src := propagated([]int64{1, 2, 3, 4, 5, 6, 7, 8}, 3)
	want := oracleAll(src, monitoredSet()...)

	m1, err := NewMonitor(monitoredSet()...)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(src.Initial())
	events := src.Events()
	half := len(events) / 2
	for _, e := range events[:half] {
		tr.Append(&event.Event{Time: e.Time, Site: e.Site, Desc: e.Desc})
	}
	m1.Advance(tr)
	blob, err := m1.Handoff()
	if err != nil {
		t.Fatal(err)
	}

	m2, err := NewMonitor(monitoredSet()...)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Resume(blob); err != nil {
		t.Fatal(err)
	}
	if h1, ok1 := m1.Horizon(); ok1 {
		if h2, ok2 := m2.Horizon(); !ok2 || !h1.Equal(h2) {
			t.Fatalf("horizon not carried: %v vs %v", h1, h2)
		}
	}
	for _, e := range events[half:] {
		tr.Append(&event.Event{Time: e.Time, Site: e.Site, Desc: e.Desc})
		m2.Advance(tr)
	}
	got := m2.Reports(tr)
	if !EqualVerdicts(want, got) {
		t.Fatalf("verdicts diverged after handoff:\noracle: %+v\nresumed: %+v", want, got)
	}

	// Resume of an unknown guarantee must fail loudly.
	m3, _ := NewMonitor(monitoredSet()[:1]...)
	if err := m3.Resume(blob); err == nil {
		t.Fatal("Resume with missing registrations succeeded")
	}
}
