package fleet

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"cmtk/internal/rule"
)

func basesN(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("base%03d", i)
	}
	return out
}

// Balance: with no affinity, no member may exceed the bounded-load cap,
// and every base must be assigned.
func TestAssignBalanceWithinBound(t *testing.T) {
	members := []string{"a", "b", "c", "d"}
	bases := basesN(200)
	tab, err := Assign(1, members, bases, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Owners) != len(bases) {
		t.Fatalf("assigned %d of %d bases", len(tab.Owners), len(bases))
	}
	bound := int(math.Ceil(200 * DefaultLoadFactor / 4)) // 63
	for m, n := range tab.Counts() {
		if n > bound {
			t.Errorf("member %s owns %d bases, above the %d bound", m, n, bound)
		}
		if n == 0 {
			t.Errorf("member %s owns nothing", m)
		}
	}
}

// Minimal movement: growing 3→4 members moves exactly the bases whose
// ring successor changed — pinned as exact counts, not >=1 assertions.
// The counts are stable because placement is a pure function of the
// frozen FNV-1a hash.
func TestAssignMinimalMovementOnGrow(t *testing.T) {
	bases := basesN(120)
	old, err := Assign(1, []string{"a", "b", "c"}, bases, Params{})
	if err != nil {
		t.Fatal(err)
	}
	next, err := Assign(2, []string{"a", "b", "c", "d"}, bases, Params{})
	if err != nil {
		t.Fatal(err)
	}
	moves := Moves(old, next)
	// Golden counts for this exact input (recompute by temporarily
	// logging if the ring geometry ever changes deliberately).
	const wantMoves = 31
	if len(moves) != wantMoves {
		t.Fatalf("3→4 members moved %d bases, want exactly %d", len(moves), wantMoves)
	}
	for _, m := range moves {
		if m.To != "d" {
			t.Fatalf("base %s moved %s→%s; every move of this grow should land on the new member", m.Base, m.From, m.To)
		}
	}
	// Far fewer bases moved than a naive rehash (which would move ~3/4 of
	// them); the new member received close to its 120/4=30 fair share.
	if len(moves) > len(bases)/2 {
		t.Fatalf("moved %d of %d bases — not minimal movement", len(moves), len(bases))
	}
}

// Shrinking 4→3 moves exactly the departing member's bases and nothing
// else: survivors keep everything they had.
func TestAssignMinimalMovementOnShrink(t *testing.T) {
	bases := basesN(120)
	old, err := Assign(1, []string{"a", "b", "c", "d"}, bases, Params{})
	if err != nil {
		t.Fatal(err)
	}
	next, err := Assign(2, []string{"a", "b", "c"}, bases, Params{})
	if err != nil {
		t.Fatal(err)
	}
	owned := 0
	for _, m := range old.Owners {
		if m == "d" {
			owned++
		}
	}
	moves := Moves(old, next)
	if len(moves) != owned {
		t.Fatalf("4→3 members moved %d bases; only d's %d bases should move", len(moves), owned)
	}
	for _, m := range moves {
		if m.From != "d" {
			t.Fatalf("base %s moved from surviving member %s", m.Base, m.From)
		}
	}
}

// Determinism: the placement is a pure function of its inputs.  The
// golden checksum is computed from the frozen FNV-1a geometry, so any
// process on any platform must reproduce it exactly — this is what lets
// translators compute tables independently of the shells.
func TestAssignDeterministicAcrossProcesses(t *testing.T) {
	tab, err := Assign(1, []string{"a", "b", "c"}, basesN(50), Params{})
	if err != nil {
		t.Fatal(err)
	}
	again, err := Assign(1, []string{"c", "b", "a", "a"}, basesN(50), Params{})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Checksum() != again.Checksum() {
		t.Fatal("same inputs (modulo order/dups) produced different placements")
	}
	const golden = uint64(0xe9e39a5b1b5fb811)
	if got := tab.Checksum(); got != golden {
		t.Fatalf("placement checksum %#x, want golden %#x — the hash geometry changed, which breaks cross-process routing", got, golden)
	}
}

// Affinity groups always land together.
func TestAssignAffinityAndPins(t *testing.T) {
	bases := []string{"A", "B", "C", "D", "E"}
	aff := map[string]string{"C": "A", "E": "D"}
	tab, err := Assign(1, []string{"m1", "m2", "m3"}, bases, Params{Affinity: aff})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Owners["A"] != tab.Owners["C"] {
		t.Errorf("affinity pair A/C split: %s vs %s", tab.Owners["A"], tab.Owners["C"])
	}
	if tab.Owners["D"] != tab.Owners["E"] {
		t.Errorf("affinity pair D/E split: %s vs %s", tab.Owners["D"], tab.Owners["E"])
	}
}

func TestAssignRejectsEmptyMembership(t *testing.T) {
	if _, err := Assign(1, nil, basesN(3), Params{}); err == nil {
		t.Fatal("assignment over zero members should fail")
	}
}

func TestTableRoundTripFile(t *testing.T) {
	tab, err := Assign(7, []string{"a", "b"}, basesN(10), Params{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "route.json")
	if err := tab.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Epoch != 7 || back.Checksum() != tab.Checksum() {
		t.Fatalf("round trip mangled the table: epoch %d checksum %#x", back.Epoch, back.Checksum())
	}
}

const affinitySpec = `site S
private A @ S
private B @ S
private C @ S
private D @ S
private E @ S
rule r1: Ws(A, b) && C = 0 ->5s W(B, b)
rule r2: W(B, b) ->5s W(D, b), W(E, b)
`

// Affinity derivation from the rule graph: condition reads co-locate
// with the trigger base, all effects of one rule co-locate with each
// other, and the LHS→effect edge stays cross-shard (that hop is the
// mesh message).
func TestAffinityFromSpec(t *testing.T) {
	sp, err := rule.ParseSpecString(affinitySpec)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sp.Plan()
	if err != nil {
		t.Fatal(err)
	}
	aff := Affinity(plan)
	root := func(b string) string {
		for {
			next, ok := aff[b]
			if !ok {
				return b
			}
			b = next
		}
	}
	if root("A") != root("C") {
		t.Errorf("condition base C should co-locate with trigger base A (got roots %s, %s)", root("A"), root("C"))
	}
	if root("D") != root("E") {
		t.Errorf("effect bases D and E of one rule should co-locate (got roots %s, %s)", root("D"), root("E"))
	}
	if root("A") == root("B") {
		t.Error("LHS base A and effect base B should NOT be unioned — that hop is the cross-shard fire")
	}
	if root("B") == root("D") {
		t.Error("r2's LHS base B and its effects should NOT be unioned")
	}
}

func TestRouterInstallMonotonic(t *testing.T) {
	t1, _ := Assign(1, []string{"a", "b"}, basesN(4), Params{})
	t2, _ := Assign(2, []string{"a", "b"}, basesN(4), Params{})
	rt := NewRouter("a", nil)
	if _, ok := rt.OwnerOf("base000"); ok {
		t.Fatal("router resolved a base before any table was installed")
	}
	if !rt.Install(t2) {
		t.Fatal("installing the first table must succeed")
	}
	if rt.Install(t1) {
		t.Fatal("older epoch must be rejected")
	}
	if rt.Install(t2) {
		t.Fatal("equal epoch reinstall must be a no-op")
	}
	if rt.Epoch() != 2 {
		t.Fatalf("epoch %d after monotonic installs, want 2", rt.Epoch())
	}
	owner, ok := rt.OwnerOf("base000")
	if !ok || owner != t2.Owners["base000"] {
		t.Fatalf("OwnerOf(base000) = %s,%v; want table owner %s", owner, ok, t2.Owners["base000"])
	}
}
