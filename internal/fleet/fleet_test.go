package fleet

import (
	"fmt"
	"strings"
	"testing"

	"cmtk/internal/data"
	"cmtk/internal/durable"
	"cmtk/internal/obs"
	"cmtk/internal/rule"
	"cmtk/internal/trace"
)

// chainSpec builds the fleet test strategy: per base family i, a copy
// rule (Ws X→W Y), a chain rule (W Y→W Z), and a conditioned rule
// reading a per-family private C (so affinity must co-locate C with X,
// and a rebalance must carry C's value for the condition to keep
// holding).
func chainSpec(t *testing.T, families int) (*rule.Spec, data.Interpretation) {
	t.Helper()
	var b strings.Builder
	b.WriteString("site S\n")
	for i := 0; i < families; i++ {
		fmt.Fprintf(&b, "private X%d @ S\nprivate Y%d @ S\nprivate Z%d @ S\nprivate Q%d @ S\nprivate C%d @ S\n", i, i, i, i, i)
		fmt.Fprintf(&b, "rule c%d: Ws(X%d, b) ->5s W(Y%d, b)\n", i, i, i)
		fmt.Fprintf(&b, "rule k%d: W(Y%d, b) ->5s W(Z%d, b)\n", i, i, i)
		fmt.Fprintf(&b, "rule g%d: Ws(X%d, b) && C%d = 0 ->5s W(Q%d, b)\n", i, i, i, i)
	}
	sp, err := rule.ParseSpecString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	initial := data.NewInterpretation()
	for i := 0; i < families; i++ {
		for _, fam := range []string{"X", "Y", "Z", "Q", "C"} {
			initial.Set(data.Item(fmt.Sprintf("%s%d", fam, i)), data.NewInt(0))
		}
	}
	return sp, initial
}

func seedConds(t *testing.T, f *Fleet, families int) {
	t.Helper()
	for i := 0; i < families; i++ {
		if err := f.WriteAux(data.Item(fmt.Sprintf("C%d", i)), data.NewInt(0)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFleetRejectsTranslatorSpecs(t *testing.T) {
	sp, err := rule.ParseSpecString("site S\nitem salary @ S\nprivate P @ S\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(sp, Options{Members: []string{"s1", "s2"}}); err == nil {
		t.Fatal("a spec with translator-backed items must be rejected by the in-process fleet")
	}
}

// A 3-shell fleet runs the chain strategy correctly: every cascade
// lands, cross-shard fires travel the mesh, and the Appendix A.2
// checker finds nothing.
func TestFleetShardsAndCascades(t *testing.T) {
	const families, rounds = 12, 5
	sp, initial := chainSpec(t, families)
	f, err := New(sp, Options{
		Members: []string{"s1", "s2", "s3"},
		Trace:   trace.New(initial),
		Metrics: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	seedConds(t, f, families)

	tab := f.Table()
	owners := map[string]bool{}
	for _, m := range tab.Owners {
		owners[m] = true
	}
	if len(owners) != 3 {
		t.Fatalf("12 families spread over %d of 3 shells; want all 3 used (owners %v)", len(owners), tab.Counts())
	}

	for r := 1; r <= rounds; r++ {
		for i := 0; i < families; i++ {
			item := data.Item(fmt.Sprintf("X%d", i))
			if err := f.Post(item, data.NewInt(int64(r-1)), data.NewInt(int64(r))); err != nil {
				t.Fatal(err)
			}
		}
	}
	f.Drain()

	for i := 0; i < families; i++ {
		for _, fam := range []string{"Y", "Z", "Q"} {
			v, ok, err := f.ReadAux(data.Item(fmt.Sprintf("%s%d", fam, i)))
			if err != nil || !ok {
				t.Fatalf("%s%d unreadable after drain: ok=%v err=%v", fam, i, ok, err)
			}
			if v.String() != fmt.Sprint(rounds) {
				t.Errorf("%s%d = %s after %d rounds, want %d", fam, i, v, rounds, rounds)
			}
		}
	}
	if v := f.CheckTrace(); len(v) != 0 {
		t.Fatalf("checker found %d violations: %v", len(v), v[0])
	}
}

// Ingress at the wrong member forwards the trigger to the owner over
// the mesh instead of executing locally.
func TestFleetForwardsMisroutedTriggers(t *testing.T) {
	const families = 6
	sp, initial := chainSpec(t, families)
	f, err := New(sp, Options{
		Members: []string{"s1", "s2"},
		Trace:   trace.New(initial),
		Metrics: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	seedConds(t, f, families)

	// Deliver every X-update to the member that does NOT own it.
	tab := f.Table()
	posted := 0
	for i := 0; i < families; i++ {
		base := fmt.Sprintf("X%d", i)
		wrong := "s1"
		if tab.Owners[base] == "s1" {
			wrong = "s2"
		}
		f.Shell(wrong).Spontaneous(data.Item(base), data.NewInt(0), data.NewInt(1))
		posted++
	}
	f.Drain()

	for i := 0; i < families; i++ {
		v, ok, err := f.ReadAux(data.Item(fmt.Sprintf("Z%d", i)))
		if err != nil || !ok || v.String() != "1" {
			t.Fatalf("Z%d = %v (ok=%v err=%v); misrouted trigger was not executed at the owner", i, v, ok, err)
		}
	}
	forwards := uint64(0)
	for _, id := range f.Members() {
		forwards += f.Router(id).forwards.With(id, "trigger").Value()
	}
	if forwards != uint64(posted) {
		t.Fatalf("forwarded %d triggers, want %d (one per misrouted post)", forwards, posted)
	}
	if v := f.CheckTrace(); len(v) != 0 {
		t.Fatalf("checker found %d violations", len(v))
	}
}

// Rebalance moves ownership and the moving bases' private state; the
// fleet keeps executing correctly afterwards, and the durable store
// remembers the new table across a restart.
func TestFleetRebalanceHandsOffDurableState(t *testing.T) {
	const families = 10
	dir := t.TempDir()
	sp, initial := chainSpec(t, families)
	open := func(members ...string) *Fleet {
		st, err := durable.Open(dir, durable.Options{Metrics: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		f, err := New(sp, Options{
			Members: members,
			Trace:   trace.New(initial),
			Store:   st,
			Metrics: obs.NewRegistry(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	f := open("s1", "s2")
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	seedConds(t, f, families)
	for i := 0; i < families; i++ {
		if err := f.Post(data.Item(fmt.Sprintf("X%d", i)), data.NewInt(0), data.NewInt(1)); err != nil {
			t.Fatal(err)
		}
	}
	f.Drain()

	if err := f.AddShell("s3"); err != nil {
		t.Fatal(err)
	}
	rep, err := f.Rebalance([]string{"s1", "s2", "s3"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epoch != 2 {
		t.Fatalf("rebalance produced epoch %d, want 2", rep.Epoch)
	}
	if len(rep.Moves) == 0 || rep.Items == 0 {
		t.Fatalf("rebalance to a new member moved %d bases / %d items; want both > 0", len(rep.Moves), rep.Items)
	}
	gained := false
	for _, m := range rep.Moves {
		if m.To == "s3" {
			gained = true
		}
	}
	if !gained {
		t.Fatal("no base moved to the new member")
	}

	// Second round after the cutover: the chain (including the C-guarded
	// rule, whose condition value had to travel with the handoff) still
	// executes for every family.
	for i := 0; i < families; i++ {
		if err := f.Post(data.Item(fmt.Sprintf("X%d", i)), data.NewInt(1), data.NewInt(2)); err != nil {
			t.Fatal(err)
		}
	}
	f.Drain()
	for i := 0; i < families; i++ {
		for _, fam := range []string{"Y", "Z", "Q"} {
			v, ok, err := f.ReadAux(data.Item(fmt.Sprintf("%s%d", fam, i)))
			if err != nil || !ok || v.String() != "2" {
				t.Fatalf("%s%d = %v (ok=%v err=%v) after rebalance, want 2", fam, i, v, ok, err)
			}
		}
	}
	if v := f.CheckTrace(); len(v) != 0 {
		t.Fatalf("checker found %d violations after rebalance", len(v))
	}
	f.Stop()

	// Restart from the same store with the same membership: the persisted
	// epoch-2 table must be adopted, not recomputed at epoch 1.
	f2 := open("s1", "s2", "s3")
	defer f2.Stop()
	if got := f2.Table().Epoch; got != 2 {
		t.Fatalf("restarted fleet installed epoch %d, want persisted epoch 2", got)
	}
	if f2.Table().Checksum() != f.Table().Checksum() {
		t.Fatal("restarted fleet computed a different placement than the persisted table")
	}
}

func TestFleetRebalanceRequiresRunningMembers(t *testing.T) {
	sp, initial := chainSpec(t, 2)
	f, err := New(sp, Options{
		Members: []string{"s1"},
		Trace:   trace.New(initial),
		Metrics: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	if _, err := f.Rebalance([]string{"s1", "ghost"}); err == nil {
		t.Fatal("rebalance onto a member that was never started must fail")
	}
}
