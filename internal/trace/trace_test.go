package trace

import (
	"testing"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/event"
	"cmtk/internal/rule"
	"cmtk/internal/vclock"
)

var (
	itemX = data.Item("X")
	itemY = data.Item("Y")
)

func at(s int) time.Time { return vclock.Epoch.Add(time.Duration(s) * time.Second) }

func spontaneousWrite(t *Trace, when time.Time, site string, item data.ItemName, v data.Value) *event.Event {
	return t.Append(&event.Event{
		Time: when,
		Site: site,
		Desc: event.Ws(item, data.NullValue, v),
	})
}

func generated(t *Trace, when time.Time, site string, d event.Desc, ruleID string, trig *event.Event) *event.Event {
	return t.Append(&event.Event{Time: when, Site: site, Desc: d, Rule: ruleID, Trigger: trig})
}

func mustRule(t *testing.T, src string) rule.Rule {
	t.Helper()
	r, err := rule.ParseRule(src)
	if err != nil {
		t.Fatalf("ParseRule(%q): %v", src, err)
	}
	return r
}

func TestAppendMaintainsInterpretations(t *testing.T) {
	tr := New(nil)
	e1 := spontaneousWrite(tr, at(1), "A", itemX, data.NewInt(5))
	if !e1.Old().Equal(data.Interpretation{}) {
		t.Fatalf("e1.Old = %s", e1.Old())
	}
	if !e1.New().Get(itemX).Equal(data.NewInt(5)) {
		t.Fatalf("e1.New = %s", e1.New())
	}
	// A non-write event leaves the state unchanged.
	e2 := tr.Append(&event.Event{Time: at(2), Site: "A", Desc: event.N(itemX, data.NewInt(5))})
	if !e2.Old().Equal(e2.New()) {
		t.Fatal("notification changed the state")
	}
	if e1.Seq != 0 || e2.Seq != 1 {
		t.Fatalf("seqs = %d, %d", e1.Seq, e2.Seq)
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestStateAtAndTimeline(t *testing.T) {
	init := data.Interpretation{"X": data.NewInt(1)}
	tr := New(init)
	spontaneousWrite(tr, at(10), "A", itemX, data.NewInt(2))
	spontaneousWrite(tr, at(20), "A", itemX, data.NewInt(3))
	if got := tr.StateAt(at(5)).Get(itemX); !got.Equal(data.NewInt(1)) {
		t.Fatalf("StateAt(5) X = %s", got)
	}
	if got := tr.StateAt(at(10)).Get(itemX); !got.Equal(data.NewInt(2)) {
		t.Fatalf("StateAt(10) X = %s", got)
	}
	if got := tr.StateAt(at(25)).Get(itemX); !got.Equal(data.NewInt(3)) {
		t.Fatalf("StateAt(25) X = %s", got)
	}
	tl := tr.Timeline(itemX)
	if len(tl) != 3 {
		t.Fatalf("timeline = %v", tl)
	}
	want := []int64{1, 2, 3}
	for i, s := range tl {
		if !s.V.Equal(data.NewInt(want[i])) {
			t.Fatalf("timeline[%d] = %s, want %d", i, s.V, want[i])
		}
	}
	// Timeline collapses repeated values.
	spontaneousWrite(tr, at(30), "A", itemX, data.NewInt(3))
	if got := len(tr.Timeline(itemX)); got != 3 {
		t.Fatalf("timeline after duplicate write = %d entries", got)
	}
}

func TestWritesAndMatching(t *testing.T) {
	tr := New(nil)
	spontaneousWrite(tr, at(1), "A", itemX, data.NewInt(1))
	spontaneousWrite(tr, at(2), "B", itemY, data.NewInt(2))
	tr.Append(&event.Event{Time: at(3), Site: "A", Desc: event.N(itemX, data.NewInt(1))})
	if got := len(tr.Timeline(itemX)); got != 2 {
		t.Fatalf("Timeline(X) = %d samples, want the initial value and one write", got)
	}
	tpl, err := rule.ParseTemplate("Ws(X, b)")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Matching(tpl)); got != 1 {
		t.Fatalf("Matching(Ws(X,b)) = %d", got)
	}
	if !tr.End().Equal(at(3)) {
		t.Fatalf("End = %v", tr.End())
	}
}

// validPropagationTrace builds the paper's Section 4.2 flow: spontaneous
// write at A, notification (notify interface), write request at B
// (strategy), performed write at B (write interface).
func validPropagationTrace(t *testing.T) (*Trace, *Checker) {
	t.Helper()
	notify := mustRule(t, "notif: Ws(X, b) ->2s N(X, b)")
	strat := mustRule(t, "prop: N(X, b) ->5s WR(Y, b)")
	write := mustRule(t, "wr: WR(Y, b) ->3s W(Y, b)")
	tr := New(nil)
	ws := spontaneousWrite(tr, at(0), "A", itemX, data.NewInt(7))
	n := generated(tr, at(1), "A", event.N(itemX, data.NewInt(7)), "notif", ws)
	wr := generated(tr, at(3), "B", event.WR(itemY, data.NewInt(7)), "prop", n)
	generated(tr, at(5), "B", event.W(itemY, data.NewInt(7)), "wr", wr)
	return tr, NewChecker([]rule.Rule{notify, strat, write})
}

func TestCheckValidExecution(t *testing.T) {
	tr, ck := validPropagationTrace(t)
	if vs := ck.Check(tr); len(vs) != 0 {
		t.Fatalf("violations on valid trace: %v", vs)
	}
}

func TestCheckDetectsTimeDisorder(t *testing.T) {
	tr := New(nil)
	spontaneousWrite(tr, at(5), "A", itemX, data.NewInt(1))
	spontaneousWrite(tr, at(3), "A", itemX, data.NewInt(2))
	vs := NewChecker(nil).Check(tr)
	if !hasProperty(vs, 1) {
		t.Fatalf("no property-1 violation: %v", vs)
	}
}

func TestCheckDetectsBadInterpretation(t *testing.T) {
	tr := New(nil)
	e := spontaneousWrite(tr, at(1), "A", itemX, data.NewInt(1))
	// Corrupt the new interpretation after the fact: eager states override
	// the trace's lazy source, exactly as the old mutable fields did.
	e.SetStates(e.Old(), e.New().With(itemY, data.NewInt(99)))
	vs := NewChecker(nil).Check(tr)
	if !hasProperty(vs, 2) && !hasProperty(vs, 3) {
		t.Fatalf("no property-2/3 violation: %v", vs)
	}
}

func TestCheckDetectsHalfProvenance(t *testing.T) {
	tr := New(nil)
	tr.Append(&event.Event{Time: at(1), Site: "A", Desc: event.N(itemX, data.NewInt(1)), Rule: "r"})
	vs := NewChecker(nil).Check(tr)
	if !hasProperty(vs, 4) {
		t.Fatalf("no property-4 violation: %v", vs)
	}
}

func TestCheckDetectsUnknownRule(t *testing.T) {
	tr := New(nil)
	ws := spontaneousWrite(tr, at(0), "A", itemX, data.NewInt(1))
	generated(tr, at(1), "A", event.N(itemX, data.NewInt(1)), "ghost", ws)
	vs := NewChecker(nil).Check(tr)
	if !hasProperty(vs, 5) {
		t.Fatalf("no property-5 violation: %v", vs)
	}
}

func TestCheckDetectsWrongInstantiation(t *testing.T) {
	notify := mustRule(t, "notif: Ws(X, b) ->2s N(X, b)")
	tr := New(nil)
	ws := spontaneousWrite(tr, at(0), "A", itemX, data.NewInt(1))
	// Notification carries the wrong value: not an instantiation.
	generated(tr, at(1), "A", event.N(itemX, data.NewInt(9)), "notif", ws)
	vs := NewChecker([]rule.Rule{notify}).Check(tr)
	if !hasProperty(vs, 5) {
		t.Fatalf("no property-5 violation: %v", vs)
	}
}

func TestCheckDetectsLateFiring(t *testing.T) {
	notify := mustRule(t, "notif: Ws(X, b) ->2s N(X, b)")
	tr := New(nil)
	ws := spontaneousWrite(tr, at(0), "A", itemX, data.NewInt(1))
	generated(tr, at(10), "A", event.N(itemX, data.NewInt(1)), "notif", ws)
	vs := NewChecker([]rule.Rule{notify}).Check(tr)
	foundMetric := false
	for _, v := range vs {
		if v.Metric {
			foundMetric = true
		}
	}
	if !foundMetric {
		t.Fatalf("no metric violation: %v", vs)
	}
}

func TestCheckDetectsMissingObligation(t *testing.T) {
	// Notify interface promised but the notification never happened.
	notify := mustRule(t, "notif: Ws(X, b) ->2s N(X, b)")
	tr := New(nil)
	spontaneousWrite(tr, at(0), "A", itemX, data.NewInt(1))
	// Horizon must extend past the obligation window.
	spontaneousWrite(tr, at(100), "A", itemY, data.NewInt(1))
	vs := NewChecker([]rule.Rule{notify}).Check(tr)
	if !hasProperty(vs, 6) {
		t.Fatalf("no property-6 violation: %v", vs)
	}
}

func TestCheckObligationWindowStillOpen(t *testing.T) {
	// The trace ends before the notify deadline: no violation yet.
	notify := mustRule(t, "notif: Ws(X, b) ->20s N(X, b)")
	tr := New(nil)
	spontaneousWrite(tr, at(0), "A", itemX, data.NewInt(1))
	spontaneousWrite(tr, at(5), "A", itemY, data.NewInt(1))
	vs := NewChecker([]rule.Rule{notify}).Check(tr)
	if len(vs) != 0 {
		t.Fatalf("violations with open window: %v", vs)
	}
}

func TestCheckNoSpontaneousWriteInterface(t *testing.T) {
	// Ws(X, b) -> F : any spontaneous write to X is a violation.
	nospont := mustRule(t, "nospont: Ws(X, b) ->0s F")
	tr := New(nil)
	spontaneousWrite(tr, at(0), "A", itemX, data.NewInt(1))
	spontaneousWrite(tr, at(10), "A", itemY, data.NewInt(2))
	vs := NewChecker([]rule.Rule{nospont}).Check(tr)
	if !hasProperty(vs, 6) {
		t.Fatalf("no property-6 violation for spontaneous write: %v", vs)
	}
	// Writes to Y are not covered by the interface.
	for _, v := range vs {
		if v.Seq != 0 {
			t.Fatalf("violation attributed to wrong event: %v", v)
		}
	}
}

func TestCheckGuardedStepSkipAllowed(t *testing.T) {
	// Cached propagation: guard (Cx != b) false throughout the window, so
	// skipping the WR step is fine.
	strat := mustRule(t, "fwd: N(X, b) ->5s (Cx != b)? WR(Y, b)")
	init := data.Interpretation{"Cx": data.NewInt(7)}
	tr := New(init)
	tr.Append(&event.Event{Time: at(0), Site: "A", Desc: event.N(itemX, data.NewInt(7))})
	spontaneousWrite(tr, at(50), "A", data.Item("Z"), data.NewInt(0)) // horizon
	vs := NewChecker([]rule.Rule{strat}).Check(tr)
	if len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
}

func TestCheckGuardedStepRequiredWhenGuardTrue(t *testing.T) {
	strat := mustRule(t, "fwd: N(X, b) ->5s (Cx != b)? WR(Y, b)")
	init := data.Interpretation{"Cx": data.NewInt(999)}
	tr := New(init)
	tr.Append(&event.Event{Time: at(0), Site: "A", Desc: event.N(itemX, data.NewInt(7))})
	spontaneousWrite(tr, at(50), "A", data.Item("Z"), data.NewInt(0))
	vs := NewChecker([]rule.Rule{strat}).Check(tr)
	if !hasProperty(vs, 6) {
		t.Fatalf("guard-true skip not detected: %v", vs)
	}
}

func TestCheckInOrderViolation(t *testing.T) {
	strat := mustRule(t, "prop: N(X, b) ->60s WR(Y, b)")
	tr := New(nil)
	n1 := tr.Append(&event.Event{Time: at(0), Site: "A", Desc: event.N(itemX, data.NewInt(1))})
	n2 := tr.Append(&event.Event{Time: at(1), Site: "A", Desc: event.N(itemX, data.NewInt(2))})
	// Deliveries inverted: n2's effect lands before n1's.
	generated(tr, at(2), "B", event.WR(itemY, data.NewInt(2)), "prop", n2)
	generated(tr, at(3), "B", event.WR(itemY, data.NewInt(1)), "prop", n1)
	vs := NewChecker([]rule.Rule{strat}).Check(tr)
	if !hasProperty(vs, 7) {
		t.Fatalf("no property-7 violation: %v", vs)
	}
}

func TestCheckInOrderOK(t *testing.T) {
	strat := mustRule(t, "prop: N(X, b) ->60s WR(Y, b)")
	tr := New(nil)
	n1 := tr.Append(&event.Event{Time: at(0), Site: "A", Desc: event.N(itemX, data.NewInt(1))})
	n2 := tr.Append(&event.Event{Time: at(1), Site: "A", Desc: event.N(itemX, data.NewInt(2))})
	generated(tr, at(2), "B", event.WR(itemY, data.NewInt(1)), "prop", n1)
	generated(tr, at(3), "B", event.WR(itemY, data.NewInt(2)), "prop", n2)
	vs := NewChecker([]rule.Rule{strat}).Check(tr)
	for _, v := range vs {
		if v.Property == 7 {
			t.Fatalf("spurious property-7 violation: %v", v)
		}
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Property: 6, Metric: true, Seq: 3, Msg: "late"}
	if s := v.String(); s == "" {
		t.Fatal("empty violation string")
	}
	v2 := Violation{Property: 1, Seq: 0, Msg: "x"}
	if v2.String() == v.String() {
		t.Fatal("indistinct violation strings")
	}
}

func TestTraceStringNonEmpty(t *testing.T) {
	tr, _ := validPropagationTrace(t)
	if tr.String() == "" {
		t.Fatal("empty trace string")
	}
}

func hasProperty(vs []Violation, p int) bool {
	for _, v := range vs {
		if v.Property == p {
			return true
		}
	}
	return false
}
