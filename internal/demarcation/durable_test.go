package demarcation

import (
	"testing"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/durable"
	"cmtk/internal/obs"
	"cmtk/internal/rule"
	"cmtk/internal/shell"
	"cmtk/internal/trace"
	"cmtk/internal/transport"
	"cmtk/internal/vclock"
)

// durPair is a two-shell demarcation deployment whose agents persist to
// per-side state directories, rebuildable over the same directories to
// model a full restart.
type durPair struct {
	clk    *vclock.Virtual
	stores []*durable.Store
	shells []*shell.Shell
	xa, ya *Agent
	xRec   bool
	yRec   bool
}

func buildDurPair(t *testing.T, dirX, dirY string, x, lx, ly, y int64) *durPair {
	t.Helper()
	p := &durPair{}
	p.clk = vclock.NewVirtual(vclock.Epoch)
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
	bus := transport.NewBus(p.clk, 100*time.Millisecond)
	opts := shell.Options{Clock: p.clk, Trace: trace.New(nil), Metrics: obs.NewRegistry()}

	stX, err := durable.Open(dirX, durable.Options{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	stY, err := durable.Open(dirY, durable.Options{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	p.stores = []*durable.Store{stX, stY}

	sx := shell.New("sx", spec, opts)
	sx.AddSite("SX", nil)
	sx.Route("SY", "sy")
	sy := shell.New("sy", spec, opts)
	sy.AddSite("SY", nil)
	sy.Route("SX", "sx")
	if _, err := sx.EnableDurable(stX); err != nil {
		t.Fatal(err)
	}
	if _, err := sy.EnableDurable(stY); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*shell.Shell{sx, sy} {
		if err := s.Attach(bus); err != nil {
			t.Fatal(err)
		}
	}
	p.xa = NewAgent(sx, "SX", "sy", data.Item("X"), data.Item("Vx"), data.Item("Lx"), true, Exact)
	p.ya = NewAgent(sy, "SY", "sx", data.Item("Y"), data.Item("Vy"), data.Item("Ly"), false, Exact)
	// An agent resumes when its shell restored both of its items.
	p.xRec = restoredBoth(sx, "Vx", "Lx")
	p.yRec = restoredBoth(sy, "Vy", "Ly")
	for _, s := range []*shell.Shell{sx, sy} {
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
	}
	p.shells = []*shell.Shell{sx, sy}
	// The deployment always re-runs its initialization; recovered agents
	// must keep their position instead.
	p.xa.Init(x, lx)
	p.ya.Init(y, ly)
	p.clk.Advance(time.Second)
	return p
}

func restoredBoth(s *shell.Shell, value, limit string) bool {
	_, v := s.ReadAux(data.Item(value))
	_, l := s.ReadAux(data.Item(limit))
	return v && l
}

func (p *durPair) shutdown(t *testing.T) {
	t.Helper()
	for _, s := range p.shells {
		s.Stop()
	}
	for _, st := range p.stores {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func (p *durPair) invariant(t *testing.T) {
	t.Helper()
	x, lx := p.xa.Value(), p.xa.Limit()
	ly, y := p.ya.Limit(), p.ya.Value()
	if !(x <= lx && lx <= ly && ly <= y) {
		t.Fatalf("invariant broken: X=%d Lx=%d Ly=%d Y=%d", x, lx, ly, y)
	}
}

// TestLimitsSurviveRestart: after the protocol has moved slack between
// the sides, a full restart (both agents rebuilt over their state
// directories, deployment re-running Init with the original arguments)
// resumes the moved limits — not the stale initial ones — and the global
// ordering X ≤ Lx ≤ Ly ≤ Y still holds.
func TestLimitsSurviveRestart(t *testing.T) {
	dirX, dirY := t.TempDir(), t.TempDir()
	p := buildDurPair(t, dirX, dirY, 10, 50, 50, 100)
	if p.xRec || p.yRec {
		t.Fatal("fresh deployment reported recovered state")
	}
	// Local headroom first, then an update that forces a limit-change
	// round trip: X wants 70, Lx is 50, so Ly must rise (Y side grants).
	okCh := make(chan bool, 1)
	p.xa.Update(60, func(ok bool) { okCh <- ok })
	p.clk.Advance(5 * time.Second)
	select {
	case ok := <-okCh:
		if !ok {
			t.Fatal("update denied despite available slack")
		}
	default:
		t.Fatal("update never completed")
	}
	p.invariant(t)
	xv, xl := p.xa.Value(), p.xa.Limit()
	yv, yl := p.ya.Value(), p.ya.Limit()
	if xl == 50 || yl == 50 {
		t.Fatalf("limits never moved: Lx=%d Ly=%d", xl, yl)
	}
	p.shutdown(t)

	p2 := buildDurPair(t, dirX, dirY, 10, 50, 50, 100)
	defer p2.shutdown(t)
	if !p2.xRec || !p2.yRec {
		t.Fatal("restart did not recover durable state")
	}
	if p2.xa.Value() != xv || p2.xa.Limit() != xl {
		t.Fatalf("X side = (%d, %d), want recovered (%d, %d)", p2.xa.Value(), p2.xa.Limit(), xv, xl)
	}
	if p2.ya.Value() != yv || p2.ya.Limit() != yl {
		t.Fatalf("Y side = (%d, %d), want recovered (%d, %d)", p2.ya.Value(), p2.ya.Limit(), yv, yl)
	}
	p2.invariant(t)

	// The recovered deployment still makes progress.
	p2.xa.Update(5, nil)
	p2.clk.Advance(5 * time.Second)
	p2.invariant(t)
}

// TestCrashCannotResurrectGrantedSlack: the X side grants slack (lowers
// Lx) and then crashes.  Its next incarnation must come back with the
// lowered limit — resurrecting the old one would break Lx ≤ Ly.
func TestCrashCannotResurrectGrantedSlack(t *testing.T) {
	dirX, dirY := t.TempDir(), t.TempDir()
	p := buildDurPair(t, dirX, dirY, 10, 50, 50, 100)
	// Y wants to go below Ly: Y side asks X side to lower Lx first.
	okCh := make(chan bool, 1)
	p.ya.Update(-60, func(ok bool) { okCh <- ok }) // Y 100 → 40 < Ly 50
	p.clk.Advance(5 * time.Second)
	select {
	case ok := <-okCh:
		if !ok {
			t.Fatal("downward update denied despite slack")
		}
	default:
		t.Fatal("update never completed")
	}
	lxAfterGrant := p.xa.Limit()
	if lxAfterGrant >= 50 {
		t.Fatalf("Lx = %d, want lowered below 50", lxAfterGrant)
	}
	// X side crashes hard; nothing after this instant persists.
	p.stores[0].Crash()
	for _, s := range p.shells {
		s.Stop()
	}
	for _, st := range p.stores {
		st.Close()
	}

	p2 := buildDurPair(t, dirX, dirY, 10, 50, 50, 100)
	defer p2.shutdown(t)
	if !p2.xRec {
		t.Fatal("crashed X side recovered nothing")
	}
	if got := p2.xa.Limit(); got != lxAfterGrant {
		t.Fatalf("Lx after crash = %d, want the granted-away %d", got, lxAfterGrant)
	}
	p2.invariant(t)
}
