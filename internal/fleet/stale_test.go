package fleet

import (
	"testing"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/obs"
	"cmtk/internal/rule"
	"cmtk/internal/shell"
	"cmtk/internal/trace"
	"cmtk/internal/transport"
	"cmtk/internal/vclock"
)

// A fire sent under a pre-rebalance table must be re-forwarded to the
// current owner and counted as stale — the in-flight tail of a
// rebalance.  Three shells hold deliberately skewed tables: the sender
// still routes Y0 to its old owner, which holds the next epoch and
// forwards the fire onward.
func TestStaleEpochFireForwarding(t *testing.T) {
	sp, err := rule.ParseSpecString(`site S
private X0 @ S
private Y0 @ S
private Z0 @ S
private Q0 @ S
private C0 @ S
rule c0: Ws(X0, b) ->5s W(Y0, b)
rule k0: W(Y0, b) ->5s W(Z0, b)
rule g0: Ws(X0, b) && C0 = 0 ->5s W(Q0, b)
`)
	if err != nil {
		t.Fatal(err)
	}
	stale := Table{Epoch: 1, Members: []string{"a", "b", "c"}, Owners: map[string]string{
		"X0": "a", "C0": "a", "Q0": "a", "Y0": "b", "Z0": "c",
	}}
	next := Table{Epoch: 2, Members: []string{"a", "b", "c"}, Owners: map[string]string{
		"X0": "a", "C0": "a", "Q0": "a", "Y0": "c", "Z0": "c",
	}}

	clk := vclock.Real{}
	bus := transport.NewBus(clk, 0)
	initial := data.NewInterpretation()
	for _, b := range []string{"X0", "Y0", "Z0", "Q0", "C0"} {
		initial.Set(data.Item(b), data.NewInt(0))
	}
	tr := trace.New(initial)
	reg := obs.NewRegistry()
	routers := map[string]*Router{}
	shells := map[string]*shell.Shell{}
	for id, tab := range map[string]Table{"a": stale, "b": next, "c": next} {
		rt := NewRouter(id, reg)
		rt.Install(tab)
		sh := shell.New(id, sp, shell.Options{Clock: clk, Trace: tr, Router: rt})
		sh.AddSite("S", nil)
		if err := sh.Attach(bus); err != nil {
			t.Fatal(err)
		}
		routers[id], shells[id] = rt, sh
	}
	for _, sh := range shells {
		if err := sh.Start(); err != nil {
			t.Fatal(err)
		}
		defer sh.Stop()
	}
	shells["a"].WriteAux(data.Item("C0"), data.NewInt(0))

	// a owns X0 under its stale table: c0 fires locally and the effect
	// W(Y0) is dispatched to b, Y0's owner at epoch 1.
	shells["a"].Spontaneous(data.Item("X0"), data.NewInt(0), data.NewInt(1))

	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, ok := shells["c"].ReadAux(data.Item("Z0")); ok && v.String() == "1" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Z0 never reached 1 at the current owner; the stale fire was not re-forwarded")
		}
		time.Sleep(time.Millisecond)
	}
	if v, ok := shells["c"].ReadAux(data.Item("Y0")); !ok || v.String() != "1" {
		t.Fatalf("Y0 at the current owner = %v (ok=%v), want 1", v, ok)
	}
	if v, ok := shells["a"].ReadAux(data.Item("Q0")); !ok || v.String() != "1" {
		t.Fatalf("Q0 at the sender = %v (ok=%v), want 1 (local conditioned rule)", v, ok)
	}
	if got := routers["b"].forwards.With("b", "fire").Value(); got != 1 {
		t.Fatalf("old owner forwarded %d fires, want exactly 1", got)
	}
	if got := routers["b"].stale.Value(); got != 1 {
		t.Fatalf("old owner counted %d stale-epoch messages, want exactly 1", got)
	}
	checker := trace.NewChecker(sp.Rules)
	if v := checker.Check(tr); len(v) != 0 {
		t.Fatalf("checker found %d violations: %v", len(v), v[0])
	}
}
