package shell

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cmtk/internal/cmi"
	"cmtk/internal/data"
	"cmtk/internal/rid"
	"cmtk/internal/ris/relstore"
	"cmtk/internal/rule"
	"cmtk/internal/trace"
	"cmtk/internal/translator"
	"cmtk/internal/transport"
	"cmtk/internal/vclock"
)

// TestDistributedShellsOverTCP runs the payroll propagation across two
// shells connected by a real TCP mesh on the real clock — the
// cmd/cmshell deployment shape, exercising binding serialization and
// trigger-stub reconstruction.
func TestDistributedShellsOverTCP(t *testing.T) {
	dbA := relstore.New("branch")
	mustExec(t, dbA, "CREATE TABLE employees (empid TEXT, salary INT, PRIMARY KEY (empid))")
	dbB := relstore.New("hq")
	mustExec(t, dbB, "CREATE TABLE employees (empid TEXT, salary INT, PRIMARY KEY (empid))")
	cfgA, err := rid.ParseString(ridA)
	if err != nil {
		t.Fatal(err)
	}
	cfgB, err := rid.ParseString(ridB)
	if err != nil {
		t.Fatal(err)
	}
	trA, err := translator.NewRel(cfgA, dbA, nil)
	if err != nil {
		t.Fatal(err)
	}
	trB, err := translator.NewRel(cfgB, dbB, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := rule.ParseSpecString(notifyStrategy)
	if err != nil {
		t.Fatal(err)
	}
	// Each shell keeps its own trace, like separate processes would.
	sa := New("shellA", spec, Options{})
	sa.AddSite("A", trA)
	sa.Route("B", "shellB")
	sb := New("shellB", spec, Options{})
	sb.AddSite("B", trB)
	sb.Route("A", "shellA")

	mesh := transport.NewTCPNetwork()
	for _, s := range []*Shell{sb, sa} {
		if err := s.Attach(mesh); err != nil {
			t.Fatal(err)
		}
	}
	if err := sa.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sb.Start(); err != nil {
		t.Fatal(err)
	}
	defer sa.Stop()
	defer sb.Stop()

	mustExec(t, dbA, "INSERT INTO employees VALUES ('e7', 321)")
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		res, _ := dbB.Exec("SELECT salary FROM employees WHERE empid = 'e7'")
		if len(res.Rows) == 1 && res.Rows[0][0].Equal(data.NewInt(321)) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("update never reached B over TCP")
}

func TestReceiveUnknownRuleRecordsFailure(t *testing.T) {
	spec, _ := rule.ParseSpecString("site S\nprivate X @ S\n")
	s := New("s", spec, Options{Clock: vclock.NewVirtual(vclock.Epoch)})
	s.AddSite("S", nil)
	s.receive(transport.Message{Kind: "fire", Rule: "ghost", From: "peer"})
	fs := s.Failures()
	if len(fs) != 1 || fs[0].Kind != cmi.FailLogical {
		t.Fatalf("failures = %v", fs)
	}
	// Bad bindings are rejected too.
	spec2, _ := rule.ParseSpecString("site S\nprivate X @ S\nrule r: Ws(X, b) ->1s W(X, b)\n")
	s2 := New("s", spec2, Options{Clock: vclock.NewVirtual(vclock.Epoch)})
	s2.AddSite("S", nil)
	s2.receive(transport.Message{Kind: "fire", Rule: "r", Bindings: map[string]string{"b": "not a literal"}})
	if len(s2.Failures()) != 1 {
		t.Fatalf("failures = %v", s2.Failures())
	}
}

func TestReceiveFireWithStubTrigger(t *testing.T) {
	clk := vclock.NewVirtual(vclock.Epoch)
	spec, _ := rule.ParseSpecString("site S\nprivate X @ S\nrule r: N(X, b) ->1s W(X, b)\n")
	s := New("s", spec, Options{Clock: clk})
	s.AddSite("S", nil)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	// A fire message arriving from a remote peer carries only the trigger
	// reference, not the event object.
	s.receive(transport.Message{
		Kind:     "fire",
		Rule:     "r",
		Bindings: map[string]string{"b": "42"},
		Trigger:  transport.EventRef{Site: "S", Seq: 9, Time: clk.Now(), Desc: "N(X, 42)"},
	})
	clk.Advance(time.Second)
	v, ok := s.ReadAux(data.Item("X"))
	if !ok || !v.Equal(data.NewInt(42)) {
		t.Fatalf("X = %s, %v", v, ok)
	}
}

func TestDispatchWithoutRouteReportsFailure(t *testing.T) {
	clk := vclock.NewVirtual(vclock.Epoch)
	spec, _ := rule.ParseSpecString(`
site S
site R
private X @ S
private Y @ R
rule r: Ws(X, b) ->1s W(Y, b)
`)
	s := New("s", spec, Options{Clock: clk})
	s.AddSite("S", nil)
	// Site R is routed nowhere and there is no transport.
	s.Route("R", "remote")
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	s.Spontaneous(data.Item("X"), data.NullValue, data.NewInt(1))
	clk.Advance(time.Second)
	fs := s.Failures()
	if len(fs) == 0 {
		t.Fatal("no failure for missing transport")
	}
}

func TestRequestWriteOnPrivateAndTranslatorSites(t *testing.T) {
	clk := vclock.NewVirtual(vclock.Epoch)
	db := relstore.New("d")
	mustExec(t, db, "CREATE TABLE employees (empid TEXT, salary INT, PRIMARY KEY (empid))")
	cfg, _ := rid.ParseString(ridB)
	tr, err := translator.NewRel(cfg, db, clk)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := rule.ParseSpecString("site B\nitem salary2 @ B\nprivate P @ B\n")
	s := New("s", spec, Options{Clock: clk})
	s.AddSite("B", tr)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	// Translator-backed write.
	s.RequestWrite(data.Item("salary2", data.NewString("e1")), data.NewInt(7))
	clk.Advance(time.Second)
	res, _ := db.Exec("SELECT salary FROM employees WHERE empid = 'e1'")
	if len(res.Rows) != 1 || !res.Rows[0][0].Equal(data.NewInt(7)) {
		t.Fatalf("db rows = %v", res.Rows)
	}
	// Private write.
	s.RequestWrite(data.Item("P"), data.NewInt(3))
	clk.Advance(time.Second)
	if v, ok := s.ReadAux(data.Item("P")); !ok || !v.Equal(data.NewInt(3)) {
		t.Fatalf("P = %s, %v", v, ok)
	}
	// The trace stays valid: RequestWrite WRs are spontaneous, the Ws
	// follow the implicit write rule.
	rules := append(spec.Rules, s.ImplicitRules()...)
	if vs := traceCheck(s, rules); len(vs) != 0 {
		t.Fatalf("violations: %v", vs)
	}
}

func traceCheck(s *Shell, rules []rule.Rule) []trace.Violation {
	return trace.NewChecker(rules).Check(s.Trace())
}

func TestCustomMessageKinds(t *testing.T) {
	clk := vclock.NewVirtual(vclock.Epoch)
	spec, _ := rule.ParseSpecString("site S\nprivate X @ S\n")
	bus := transport.NewBus(clk, 50*time.Millisecond)
	a := New("a", spec, Options{Clock: clk})
	a.AddSite("S", nil)
	b := New("b", spec, Options{Clock: clk})
	if err := a.Attach(bus); err != nil {
		t.Fatal(err)
	}
	if err := b.Attach(bus); err != nil {
		t.Fatal(err)
	}
	var got []string
	b.HandleKind("ping", func(m transport.Message) { got = append(got, m.Payload["x"]) })
	if err := a.SendCustom("b", transport.Message{Kind: "ping", Payload: map[string]string{"x": "1"}}); err != nil {
		t.Fatal(err)
	}
	// Unregistered kinds are dropped silently.
	a.SendCustom("b", transport.Message{Kind: "unknown"})
	clk.Advance(time.Second)
	if len(got) != 1 || got[0] != "1" {
		t.Fatalf("got = %v", got)
	}
	// SendCustom without a transport errors.
	c := New("c", spec, Options{Clock: clk})
	if err := c.SendCustom("b", transport.Message{Kind: "ping"}); err == nil {
		t.Fatal("send without transport succeeded")
	}
}

func TestRuleSitePlacementErrors(t *testing.T) {
	// A rule whose LHS item has no site fails Start.
	spec := rule.NewSpec()
	spec.Sites = []string{"S"}
	spec.Private["X"] = "S"
	r, err := rule.ParseRule("r: N(Y, b) ->1s W(X, b)")
	if err != nil {
		t.Fatal(err)
	}
	spec.Rules = append(spec.Rules, r)
	s := New("s", spec, Options{Clock: vclock.NewVirtual(vclock.Epoch)})
	s.AddSite("S", nil)
	if err := s.Start(); err == nil {
		t.Fatal("Start accepted a rule with an unplaced LHS")
	}
}

// TestStartRejectsWhatValidateRejects: a hand-built spec never went
// through ParseSpec, so Start is where its errors surface.  Its rule
// writes Y at site A and Z at site B, and Appendix A.1 runs all of a
// rule's RHS events at one site.
func TestStartRejectsWhatValidateRejects(t *testing.T) {
	spec := rule.NewSpec()
	spec.Sites = []string{"A", "B"}
	spec.Private["X"], spec.Private["Y"], spec.Private["Z"] = "A", "A", "B"
	r, err := rule.ParseRule("r: Ws(X, b) ->1s W(Y, b), W(Z, b)")
	if err != nil {
		t.Fatal(err)
	}
	spec.Rules = append(spec.Rules, r)
	verr := spec.Validate()
	if verr == nil || !strings.Contains(verr.Error(), "effects span sites A and B") {
		t.Fatalf("Validate = %v, want the effects-span-sites error", verr)
	}
	s := New("s", spec, Options{Clock: vclock.NewVirtual(vclock.Epoch)})
	s.AddSite("A", nil)
	s.AddSite("B", nil)
	if err := s.Start(); err == nil || !strings.Contains(err.Error(), verr.Error()) {
		t.Fatalf("Start = %v, want Validate's error %q", err, verr)
	}
}

func TestSubscribeFailureSurfacesAtStart(t *testing.T) {
	// A strategy that listens on a base whose translator cannot notify
	// (no watch binding) must fail Start with a clear error.
	clk := vclock.NewVirtual(vclock.Epoch)
	db := relstore.New("d")
	mustExec(t, db, "CREATE TABLE employees (empid TEXT, salary INT, PRIMARY KEY (empid))")
	cfg, err := rid.ParseString(`
kind relstore
site A
item salary1
  type int
  read SELECT salary FROM employees WHERE empid = $n
`)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := translator.NewRel(cfg, db, clk)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := rule.ParseSpecString(`
site A
item salary1 @ A
rule r: N(salary1(n), b) ->1s WR(salary1(n), b)
`)
	s := New("s", spec, Options{Clock: clk})
	s.AddSite("A", tr)
	if err := s.Start(); err == nil {
		t.Fatal("Start succeeded without a notify binding")
	}
}

// stepClock is one shell's handle on a tick counter shared with its
// peers: every Now() on any handle is one tick later than the last.  A
// handle with parked set stops inside its first Now() — after drawing the
// tick, before returning it — until release is closed, which is the
// window in which a stamp taken before the commit goes stale.
type stepClock struct {
	ticks   *atomic.Int64
	parked  chan struct{} // nil: never parks
	release chan struct{}
	once    sync.Once
}

func (c *stepClock) Now() time.Time {
	now := vclock.Epoch.Add(time.Duration(c.ticks.Add(1)) * time.Millisecond)
	if c.parked != nil {
		c.once.Do(func() {
			close(c.parked)
			<-c.release
		})
	}
	return now
}

func (c *stepClock) AfterFunc(time.Duration, func()) vclock.Timer {
	panic("stepClock: the scenario schedules no timers")
}

// TestSharedTraceStampOrderFollowsSeqOrder forces the interleaving behind
// Appendix A.2 property-1 inversions on a trace shared by serial shells:
// shell A reads the clock for an event, shell B then commits a whole
// cascade, and only then does A commit.  The stamp must be drawn at the
// commit point, so Time never decreases in Seq order.
func TestSharedTraceStampOrderFollowsSeqOrder(t *testing.T) {
	spec, err := rule.ParseSpecString(`
site A
site B
private XA @ A
private YA @ A
private XB @ B
private YB @ B
rule ra: Ws(XA, b) ->1s W(YA, b)
rule rb: Ws(XB, b) ->1s W(YB, b)
`)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(nil)
	var ticks atomic.Int64
	clkA := &stepClock{ticks: &ticks, parked: make(chan struct{}), release: make(chan struct{})}
	shells := map[string]*Shell{
		"A": New("a", spec, Options{Clock: clkA, Trace: tr}),
		"B": New("b", spec, Options{Clock: &stepClock{ticks: &ticks}, Trace: tr}),
	}
	for site, s := range shells {
		s.AddSite(site, nil)
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		defer s.Stop()
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		shells["A"].Spontaneous(data.Item("XA"), data.NullValue, data.NewInt(1))
	}()
	<-clkA.parked
	shells["B"].Spontaneous(data.Item("XB"), data.NullValue, data.NewInt(2))
	close(clkA.release)
	<-done

	events := tr.Events()
	if len(events) != 4 {
		t.Fatalf("recorded %d events, want both cascades (4):\n%s", len(events), tr)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Time.Before(events[i-1].Time) {
			t.Errorf("#%d stamped %v, after #%d stamped %v", events[i].Seq, events[i].Time, events[i-1].Seq, events[i-1].Time)
		}
	}
	for _, v := range trace.NewChecker(spec.Rules).Check(tr) {
		t.Errorf("checker: %s", v)
	}
}
