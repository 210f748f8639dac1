package demarcation

import (
	"math/rand"
	"testing"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/rule"
	"cmtk/internal/shell"
	"cmtk/internal/trace"
	"cmtk/internal/transport"
	"cmtk/internal/vclock"
)

// pair assembles two agents for X ≤ Y on two shells over a bus.
type pair struct {
	clk    *vclock.Virtual
	tr     *trace.Trace
	xAgent *Agent
	yAgent *Agent
}

func newPair(t *testing.T, policy Policy, x, lx, ly, y int64) *pair {
	t.Helper()
	clk := vclock.NewVirtual(vclock.Epoch)
	tr := trace.New(nil)
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
	if err != nil {
		t.Fatal(err)
	}
	bus := transport.NewBus(clk, 100*time.Millisecond)
	opts := shell.Options{Clock: clk, Trace: tr}
	sx := shell.New("sx", spec, opts)
	sx.AddSite("SX", nil)
	sx.Route("SY", "sy")
	sy := shell.New("sy", spec, opts)
	sy.AddSite("SY", nil)
	sy.Route("SX", "sx")
	if err := sx.Attach(bus); err != nil {
		t.Fatal(err)
	}
	if err := sy.Attach(bus); err != nil {
		t.Fatal(err)
	}
	if err := sx.Start(); err != nil {
		t.Fatal(err)
	}
	if err := sy.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sx.Stop(); sy.Stop() })

	xa := NewAgent(sx, "SX", "sy", data.Item("X"), data.Item("Vx"), data.Item("Lx"), true, policy)
	ya := NewAgent(sy, "SY", "sx", data.Item("Y"), data.Item("Vy"), data.Item("Ly"), false, policy)
	xa.Init(x, lx)
	ya.Init(y, ly)
	clk.Advance(time.Second)
	return &pair{clk: clk, tr: tr, xAgent: xa, yAgent: ya}
}

func (p *pair) checkInvariant(t *testing.T) {
	t.Helper()
	rep := Guarantee("X", "Y").Check(p.tr)
	if !rep.Holds {
		t.Fatalf("X<=Y violated: %v\ntrace:\n%s", rep.Violations, p.tr)
	}
}

func TestLocalOpsWithinSlack(t *testing.T) {
	p := newPair(t, Exact, 0, 50, 50, 100)
	done := 0
	for i := 0; i < 50; i++ {
		p.xAgent.Update(1, func(ok bool) {
			if !ok {
				t.Error("in-slack update denied")
			}
			done++
		})
	}
	p.clk.Advance(time.Second)
	if done != 50 {
		t.Fatalf("done = %d", done)
	}
	st := p.xAgent.Stats()
	if st.LocalOps != 50 || st.RemoteAsks != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if p.xAgent.Value() != 50 {
		t.Fatalf("X = %d", p.xAgent.Value())
	}
	p.checkInvariant(t)
}

func TestLimitChangeGranted(t *testing.T) {
	p := newPair(t, Exact, 45, 50, 50, 100)
	// X wants +10: crosses Lx=50, peer has slack (Y=100, Ly=50), so the
	// request is granted.
	var ok bool
	donec := false
	p.xAgent.Update(10, func(b bool) { ok = b; donec = true })
	p.clk.Advance(5 * time.Second)
	if !donec || !ok {
		t.Fatalf("update done=%v ok=%v", donec, ok)
	}
	if p.xAgent.Value() != 55 {
		t.Fatalf("X = %d", p.xAgent.Value())
	}
	st := p.xAgent.Stats()
	if st.RemoteAsks != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if p.xAgent.Limit() < 55 {
		t.Fatalf("Lx = %d", p.xAgent.Limit())
	}
	if p.yAgent.Limit() < p.xAgent.Limit() {
		t.Fatalf("Ly = %d < Lx = %d", p.yAgent.Limit(), p.xAgent.Limit())
	}
	p.checkInvariant(t)
}

func TestLimitChangeDeniedWhenNoSlack(t *testing.T) {
	p := newPair(t, Exact, 45, 50, 50, 50) // Y sits on its floor: no slack
	var ok bool
	donec := false
	p.xAgent.Update(10, func(b bool) { ok = b; donec = true })
	p.clk.Advance(5 * time.Second)
	if !donec {
		t.Fatal("update never completed")
	}
	if ok {
		t.Fatal("update granted without slack")
	}
	if p.xAgent.Value() != 45 {
		t.Fatalf("X moved to %d", p.xAgent.Value())
	}
	if st := p.xAgent.Stats(); st.Denied != 1 {
		t.Fatalf("stats = %+v", st)
	}
	p.checkInvariant(t)
}

func TestUpperSideDecrease(t *testing.T) {
	p := newPair(t, Exact, 0, 50, 50, 100)
	// Y wants to drop to 30: below Ly=50, needs X's side to lower Lx
	// first.  X=0 so Lx can drop to 30.
	var ok bool
	p.yAgent.Update(-70, func(b bool) { ok = b })
	p.clk.Advance(5 * time.Second)
	if !ok {
		t.Fatal("upper decrease denied despite slack")
	}
	if p.yAgent.Value() != 30 {
		t.Fatalf("Y = %d", p.yAgent.Value())
	}
	if p.xAgent.Limit() > p.yAgent.Limit() {
		t.Fatalf("Lx = %d > Ly = %d", p.xAgent.Limit(), p.yAgent.Limit())
	}
	p.checkInvariant(t)
}

func TestGenerousPolicyReducesRoundTrips(t *testing.T) {
	run := func(policy Policy) int {
		p := newPair(t, policy, 0, 10, 10, 1000)
		for i := 0; i < 50; i++ {
			p.xAgent.Update(5, nil)
			p.clk.Advance(2 * time.Second)
		}
		p.checkInvariant(t)
		return p.xAgent.Stats().RemoteAsks
	}
	exact := run(Exact)
	generous := run(Generous)
	if generous >= exact {
		t.Fatalf("generous policy (%d asks) not better than exact (%d)", generous, exact)
	}
}

func TestPolicyFunctions(t *testing.T) {
	if Exact(5, 10) != 5 || Exact(15, 10) != 10 {
		t.Error("Exact broken")
	}
	if Generous(5, 10) != 7 { // 5 + (10-5)/2
		t.Errorf("Generous(5,10) = %d", Generous(5, 10))
	}
	if Generous(15, 10) != 10 {
		t.Errorf("Generous(15,10) = %d", Generous(15, 10))
	}
}

// Property-style: random interleaved updates never violate X <= Y, and
// every granted update left the invariant intact at every state.
func TestRandomizedUpdatesKeepInvariant(t *testing.T) {
	p := newPair(t, Generous, 0, 100, 100, 200)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		if rng.Intn(2) == 0 {
			p.xAgent.Update(int64(rng.Intn(21)-5), nil) // mostly increments
		} else {
			p.yAgent.Update(int64(rng.Intn(21)-15), nil) // mostly decrements
		}
		p.clk.Advance(500 * time.Millisecond)
	}
	p.clk.Advance(10 * time.Second)
	p.checkInvariant(t)
	if p.xAgent.Value() > p.yAgent.Value() {
		t.Fatalf("final X=%d > Y=%d", p.xAgent.Value(), p.yAgent.Value())
	}
	// Limits still ordered.
	if p.xAgent.Limit() > p.yAgent.Limit() {
		t.Fatalf("Lx=%d > Ly=%d", p.xAgent.Limit(), p.yAgent.Limit())
	}
}
