package core

import (
	"testing"
	"time"

	"cmtk/internal/durable"
	"cmtk/internal/rid"
	"cmtk/internal/translator"
	"cmtk/internal/vclock"
)

const durRidX = `
kind relstore
site SX
item X
  type int
  read   SELECT salary FROM employees WHERE empid = 'x'
  write  UPDATE employees SET salary = $b WHERE empid = 'x'
  insert INSERT INTO employees (empid, salary) VALUES ('x', $b)
  delete DELETE FROM employees WHERE empid = 'x'
interface WR(X, b) ->1s W(X, b)
`

const durRidY = `
kind relstore
site SY
item Y
  type int
  read   SELECT salary FROM employees WHERE empid = 'y'
  write  UPDATE employees SET salary = $b WHERE empid = 'y'
  insert INSERT INTO employees (empid, salary) VALUES ('y', $b)
  delete DELETE FROM employees WHERE empid = 'y'
interface WR(Y, b) ->1s W(Y, b)
`

// buildDurableToolkit assembles a two-site demarcation deployment whose
// durable state lives in st, modelling one incarnation of a process.
func buildDurableToolkit(t *testing.T, st *durable.Store, clk *vclock.Virtual) (*Toolkit, *demarcationAgents) {
	t.Helper()
	cfgX, err := rid.ParseString(durRidX)
	if err != nil {
		t.Fatal(err)
	}
	cfgY, err := rid.ParseString(durRidY)
	if err != nil {
		t.Fatal(err)
	}
	tk := New(Config{Clock: clk, BusLatency: 50 * time.Millisecond, Durable: st})
	if err := tk.AddSite(Site{RID: cfgX, Local: &translator.LocalStores{Rel: newEmployeesDB(t, "x")}}); err != nil {
		t.Fatal(err)
	}
	if err := tk.AddSite(Site{RID: cfgY, Local: &translator.LocalStores{Rel: newEmployeesDB(t, "y")}}); err != nil {
		t.Fatal(err)
	}
	if err := tk.Deploy(); err != nil {
		t.Fatal(err)
	}
	if err := tk.Start(); err != nil {
		t.Fatal(err)
	}
	// The deployment re-runs its initialization every start, exactly as a
	// restarted process would; recovered agents must keep their position.
	xa, ya, err := tk.AddInequality(Inequality{X: "X", Y: "Y", InitX: 10, LimX: 50, LimY: 50, InitY: 100})
	if err != nil {
		t.Fatal(err)
	}
	return tk, &demarcationAgents{xa: xa, ya: ya}
}

type demarcationAgents struct {
	xa, ya interface {
		Value() int64
		Limit() int64
		Update(int64, func(bool))
	}
}

// openStore opens the durable store in dir; the test closes it.
func openStore(t *testing.T, dir string) *durable.Store {
	t.Helper()
	st, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestToolkitStateDirSurvivesRestart: a toolkit built over a store in a
// state directory persists its demarcation limits and CM-private items; a
// second toolkit over a store reopened in the same directory resumes the
// moved position instead of the initial arguments.
func TestToolkitStateDirSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	clk := vclock.NewVirtual(vclock.Epoch)
	st := openStore(t, dir)
	tk, ag := buildDurableToolkit(t, st, clk)
	if tk.Durable() != st {
		t.Fatal("Durable() is not the store in Config.Durable")
	}
	if tk.RestoredItems() != 0 {
		t.Fatalf("fresh deployment restored %d items", tk.RestoredItems())
	}
	// Force a limit-change round trip: X wants 60, Lx is 50.
	okCh := make(chan bool, 1)
	ag.xa.Update(50, func(ok bool) { okCh <- ok })
	clk.Advance(5 * time.Second)
	select {
	case ok := <-okCh:
		if !ok {
			t.Fatal("update denied despite available slack")
		}
	default:
		t.Fatal("update never completed")
	}
	xv, xl := ag.xa.Value(), ag.xa.Limit()
	yl := ag.ya.Limit()
	if xl == 50 && yl == 50 {
		t.Fatalf("limits never moved: Lx=%d Ly=%d", xl, yl)
	}
	tk.Stop()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	clk2 := vclock.NewVirtual(vclock.Epoch)
	st2 := openStore(t, dir)
	defer st2.Close()
	tk2, ag2 := buildDurableToolkit(t, st2, clk2)
	defer tk2.Stop()
	if !tk2.Durable().WasClean() {
		t.Fatal("clean Stop left no clean-shutdown marker")
	}
	if tk2.RestoredItems() == 0 {
		t.Fatal("restart restored no private items")
	}
	if got, gotL := ag2.xa.Value(), ag2.xa.Limit(); got != xv || gotL != xl {
		t.Fatalf("X side = (%d, %d), want recovered (%d, %d)", got, gotL, xv, xl)
	}
	if x, lx, ly, y := ag2.xa.Value(), ag2.xa.Limit(), ag2.ya.Limit(), ag2.ya.Value(); !(x <= lx && lx <= ly && ly <= y) {
		t.Fatalf("invariant broken after restart: X=%d Lx=%d Ly=%d Y=%d", x, lx, ly, y)
	}
}
