package fleet

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"cmtk/internal/data"
	"cmtk/internal/event"
	"cmtk/internal/obs"
	"cmtk/internal/rule"
	"cmtk/internal/shell"
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

// TestFleetForwardedTriggersKeepValues: a trigger forwarded to the
// owning member carries its old and new values with kind and bits
// intact (a literal round trip turns Float 2 and -0.0 into Ints and
// drops a NaN's payload), so the owner's Ws event, its private copy and
// the cascade all see the values the non-owner was given.
func TestFleetForwardedTriggersKeepValues(t *testing.T) {
	vals := []data.Value{
		data.NewFloat(2),
		data.NewFloat(math.Copysign(0, -1)),
		data.NewFloat(math.Float64frombits(0x7ff8_0000_dead_beef)),
	}
	sp, initial := chainSpec(t, len(vals))
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
	seedConds(t, f, len(vals))

	tab := f.Table()
	old := func(i int) data.Value { return vals[(i+1)%len(vals)] }
	for i, v := range vals {
		base := fmt.Sprintf("X%d", i)
		wrong := "s1"
		if tab.Owners[base] == "s1" {
			wrong = "s2"
		}
		f.Shell(wrong).Spontaneous(data.Item(base), old(i), v)
	}
	f.Drain()

	// reflect.DeepEqual compares the kind and the payload bits, which
	// Equal does not: Int 2 equals Float 2 and a NaN equals nothing.
	describe := func(v data.Value) string {
		return fmt.Sprintf("%v (%s, %#x)", v, v.Kind(), math.Float64bits(v.Float()))
	}
	for i, v := range vals {
		for _, fam := range []string{"X", "Z"} {
			item := data.Item(fmt.Sprintf("%s%d", fam, i))
			got, ok, err := f.ReadAux(item)
			if err != nil || !ok || !reflect.DeepEqual(got, v) {
				t.Errorf("%s = %s (ok=%v err=%v), want %s", item, describe(got), ok, err, describe(v))
			}
		}
	}
	ws := 0
	for _, e := range f.Trace().Events() {
		if e.Desc.Op != event.OpWs {
			continue
		}
		ws++
		var i int
		if _, err := fmt.Sscanf(e.Desc.Item.Base, "X%d", &i); err != nil {
			t.Fatalf("unexpected Ws event %s", e.Desc)
		}
		if !reflect.DeepEqual(e.Desc.OldVal, old(i)) || !reflect.DeepEqual(e.Desc.Val, vals[i]) {
			t.Errorf("owner recorded Ws(X%d, %s, %s), want Ws(X%d, %s, %s)", i,
				describe(e.Desc.OldVal), describe(e.Desc.Val), i, describe(old(i)), describe(vals[i]))
		}
	}
	if ws != len(vals) {
		t.Fatalf("recorded %d Ws events, want %d", ws, len(vals))
	}
}

// Rebalance moves ownership and the moving bases' private items, and
// the fleet keeps executing correctly afterwards.  The ring is a pure
// function of the membership, so the move and item counts are exact.
func TestFleetRebalanceHandsOffPrivateState(t *testing.T) {
	const families = 10
	sp, initial := chainSpec(t, families)
	reg := obs.NewRegistry()
	f, err := New(sp, Options{
		Members: []string{"s1", "s2"},
		Trace:   trace.New(initial),
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
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
	// Growing 2 → 3 moves 16 of the 50 bases, all onto s3, and every
	// moving base holds exactly one item.
	const wantMoves = 16
	if rep.Epoch != 2 || len(rep.Moves) != wantMoves || rep.Items != wantMoves {
		t.Fatalf("rebalance: epoch %d, %d moves, %d items; want epoch 2, %d moves, %d items",
			rep.Epoch, len(rep.Moves), rep.Items, wantMoves, wantMoves)
	}
	for _, m := range rep.Moves {
		if m.To != "s3" {
			t.Errorf("%s moved %s → %s; growing moves bases only onto the new member", m.Base, m.From, m.To)
		}
		if v, ok := f.Shell(m.From).ReadAux(data.Item(m.Base)); ok {
			t.Errorf("old owner %s kept %s = %v after handing it off", m.From, m.Base, v)
		}
	}
	for name, want := range map[string]int{
		"cmtk_fleet_rebalances_total":    1,
		"cmtk_fleet_moved_bases_total":   wantMoves,
		"cmtk_fleet_handoff_items_total": wantMoves,
	} {
		if got := reg.Counter(name, "").With().Value(); got != uint64(want) {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
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

// ReadAux reads a CM-private item from its owner.
func (f *Fleet) ReadAux(item data.ItemName) (data.Value, bool, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	sh, err := f.ownerLocked(item.Base)
	if err != nil {
		return data.NullValue, false, err
	}
	v, ok := sh.ReadAux(item)
	return v, ok, nil
}

// Table returns the current route table.
func (f *Fleet) Table() Table {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.table
}

// Shell returns a member by ID (nil if absent).
func (f *Fleet) Shell(id string) *shell.Shell {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.shells[id]
}

// Router returns a member's route-table view (nil if absent).
func (f *Fleet) Router(id string) *Router {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.routers[id]
}

// Members returns the live shells' IDs in creation order.
func (f *Fleet) Members() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return append([]string{}, f.order...)
}
