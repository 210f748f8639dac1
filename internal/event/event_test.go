package event

import (
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"cmtk/internal/data"
)

func item(base string, args ...data.Value) data.ItemName { return data.Item(base, args...) }

func TestDescString(t *testing.T) {
	cases := []struct {
		d    Desc
		want string
	}{
		{W(item("X"), data.NewInt(5)), "W(X, 5)"},
		{Ws(item("X"), data.NullValue, data.NewInt(5)), "Ws(X, 5)"},
		{Ws(item("X"), data.NewInt(4), data.NewInt(5)), "Ws(X, 4, 5)"},
		{WR(item("Y"), data.NewString("v")), `WR(Y, "v")`},
		{Desc{Op: OpRR, Item: item("X")}, "RR(X)"},
		{R(item("X"), data.NewInt(1)), "R(X, 1)"},
		{N(item("salary1", data.NewString("e7")), data.NewInt(100)), `N(salary1("e7"), 100)`},
		{P(300 * time.Second), "P(300)"},
		{Desc{Op: OpF}, "F"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestOpProperties(t *testing.T) {
	if !OpW.IsWrite() || !OpWs.IsWrite() {
		t.Error("performed writes not IsWrite")
	}
	for _, op := range []Op{OpWR, OpRR, OpR, OpN, OpP, OpF} {
		if op.IsWrite() {
			t.Errorf("%v IsWrite", op)
		}
	}
	if OpRR.HasValue() || !OpN.HasValue() {
		t.Error("HasValue wrong")
	}
	if OpP.HasItem() || OpF.HasItem() || !OpRR.HasItem() {
		t.Error("HasItem wrong")
	}
}

func TestOpFromName(t *testing.T) {
	for _, op := range []Op{OpW, OpWs, OpWR, OpRR, OpR, OpN, OpP, OpF} {
		if got := OpFromName(op.String()); got != op {
			t.Errorf("OpFromName(%s) = %v", op, got)
		}
	}
	if OpFromName("XYZ") != OpInvalid {
		t.Error("unknown name not OpInvalid")
	}
}

func TestTemplateMatchSimple(t *testing.T) {
	// N(X, b) against N(X, 5) binds b=5.
	tpl := TN(ItemT("X"), Param("b"))
	b, ok := tpl.Match(N(item("X"), data.NewInt(5)))
	if !ok {
		t.Fatal("no match")
	}
	if !b["b"].Equal(data.NewInt(5)) {
		t.Fatalf("b = %v", b)
	}
	// Different op does not match.
	if _, ok := tpl.Match(W(item("X"), data.NewInt(5))); ok {
		t.Error("N template matched W event")
	}
	// Different item does not match.
	if _, ok := tpl.Match(N(item("Y"), data.NewInt(5))); ok {
		t.Error("matched wrong item")
	}
}

func TestTemplateMatchParameterizedItem(t *testing.T) {
	// N(salary1(n), b) against N(salary1("e7"), 100).
	tpl := TN(ItemT("salary1", Param("n")), Param("b"))
	d := N(item("salary1", data.NewString("e7")), data.NewInt(100))
	b, ok := tpl.Match(d)
	if !ok {
		t.Fatal("no match")
	}
	if !b["n"].Equal(data.NewString("e7")) || !b["b"].Equal(data.NewInt(100)) {
		t.Fatalf("bindings = %v", b)
	}
	// Arity mismatch.
	if _, ok := tpl.Match(N(item("salary1"), data.NewInt(1))); ok {
		t.Error("matched wrong arity")
	}
}

func TestTemplateMatchLiteralAndWildcard(t *testing.T) {
	// WR(X, 5) only matches value 5.
	tpl := TWR(ItemT("X"), Lit(data.NewInt(5)))
	if _, ok := tpl.Match(WR(item("X"), data.NewInt(5))); !ok {
		t.Error("literal failed to match")
	}
	if _, ok := tpl.Match(WR(item("X"), data.NewInt(6))); ok {
		t.Error("literal matched wrong value")
	}
	// W(*, *) style: wildcard value.
	tpl2 := TW(ItemT("X"), Wild())
	if _, ok := tpl2.Match(W(item("X"), data.NewInt(99))); !ok {
		t.Error("wildcard failed to match")
	}
}

func TestTemplateRepeatedParamMustAgree(t *testing.T) {
	// Ws(X, b, b): old and new must be equal for a match.
	tpl := Template{Op: OpWs, Item: ItemT("X"), OldT: Param("b"), ValT: Param("b")}
	if _, ok := tpl.Match(Ws(item("X"), data.NewInt(3), data.NewInt(3))); !ok {
		t.Error("repeated param equal values failed")
	}
	if _, ok := tpl.Match(Ws(item("X"), data.NewInt(3), data.NewInt(4))); ok {
		t.Error("repeated param unequal values matched")
	}
}

func TestTemplateWsShorthand(t *testing.T) {
	// Ws(X, b) = Ws(X, *, b) matches any old value.
	tpl := TWs2(ItemT("X"), Param("b"))
	b, ok := tpl.Match(Ws(item("X"), data.NewInt(1), data.NewInt(2)))
	if !ok || !b["b"].Equal(data.NewInt(2)) {
		t.Fatalf("shorthand match = %v, %v", b, ok)
	}
	if got := tpl.String(); got != "Ws(X, b)" {
		t.Errorf("String = %q", got)
	}
	full := Template{Op: OpWs, Item: ItemT("X"), OldT: Param("a"), ValT: Param("b")}
	if got := full.String(); got != "Ws(X, a, b)" {
		t.Errorf("String = %q", got)
	}
}

func TestFalseTemplateNeverMatches(t *testing.T) {
	tpl := TF()
	for _, d := range []Desc{
		W(item("X"), data.NewInt(1)),
		P(time.Second),
		{Op: OpF},
	} {
		if _, ok := tpl.Match(d); ok {
			t.Errorf("F matched %s", d)
		}
	}
	if _, err := tpl.Subst(Bindings{}); err == nil {
		t.Error("instantiating F succeeded")
	}
}

func TestPeriodicTemplateMatch(t *testing.T) {
	tpl := TP(300 * time.Second)
	if _, ok := tpl.Match(P(300 * time.Second)); !ok {
		t.Error("P(300) failed to match")
	}
	if _, ok := tpl.Match(P(60 * time.Second)); ok {
		t.Error("P(300) matched P(60)")
	}
}

func TestSubst(t *testing.T) {
	tpl := TWR(ItemT("salary2", Param("n")), Param("b"))
	b := Bindings{"n": data.NewString("e7"), "b": data.NewInt(100)}
	d, err := tpl.Subst(b)
	if err != nil {
		t.Fatal(err)
	}
	want := WR(item("salary2", data.NewString("e7")), data.NewInt(100))
	if !d.Equal(want) {
		t.Fatalf("Subst = %s, want %s", d, want)
	}
}

func TestSubstUnboundFails(t *testing.T) {
	tpl := TWR(ItemT("Y"), Param("missing"))
	if _, err := tpl.Subst(Bindings{}); err == nil {
		t.Error("unbound parameter substitution succeeded")
	}
	tplW := TWR(ItemT("Y"), Wild())
	if _, err := tplW.Subst(Bindings{}); err == nil {
		t.Error("wildcard substitution succeeded")
	}
}

func TestSubstWsOldValue(t *testing.T) {
	tpl := Template{Op: OpWs, Item: ItemT("X"), OldT: Param("a"), ValT: Param("b")}
	b := Bindings{"a": data.NewInt(1), "b": data.NewInt(2)}
	d, err := tpl.Subst(b)
	if err != nil {
		t.Fatal(err)
	}
	if !d.OldVal.Equal(data.NewInt(1)) || !d.Val.Equal(data.NewInt(2)) {
		t.Fatalf("Subst = %s", d)
	}
}

func TestParams(t *testing.T) {
	tpl := Template{Op: OpWs, Item: ItemT("phone", Param("n")), OldT: Param("a"), ValT: Param("b")}
	ps := tpl.Params()
	want := map[string]bool{"n": true, "a": true, "b": true}
	if len(ps) != 3 {
		t.Fatalf("Params = %v", ps)
	}
	for _, p := range ps {
		if !want[p] {
			t.Fatalf("unexpected param %q", p)
		}
	}
	if got := TP(time.Second).Params(); len(got) != 0 {
		t.Errorf("P params = %v", got)
	}
}

func TestEventSpontaneousAndString(t *testing.T) {
	e := &Event{
		Time: time.Date(1996, 2, 26, 9, 0, 0, 0, time.UTC),
		Seq:  7,
		Site: "A",
		Desc: Ws(item("X"), data.NullValue, data.NewInt(5)),
	}
	if !e.Spontaneous() {
		t.Error("event with no rule not spontaneous")
	}
	gen := &Event{Desc: W(item("Y"), data.NewInt(5)), Rule: "r1", Trigger: e}
	if gen.Spontaneous() {
		t.Error("generated event spontaneous")
	}
	if s := e.String(); s == "" {
		t.Error("empty String")
	}
	if s := gen.String(); s == "" || !contains(s, "r1") {
		t.Errorf("generated String = %q, want rule id", s)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && (stringIndex(s, sub) >= 0))
}

func stringIndex(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestBindingsClone(t *testing.T) {
	b := Bindings{"x": data.NewInt(1)}
	c := b.Clone()
	c["x"] = data.NewInt(2)
	if !b["x"].Equal(data.NewInt(1)) {
		t.Error("Clone aliases")
	}
}

// Property: match-then-subst is the identity on ground descriptors, for any
// template whose slots are all parameters (the fully general template).
func TestQuickMatchSubstRoundTrip(t *testing.T) {
	f := func(base string, argI int64, val int64, opSel uint8) bool {
		if base == "" {
			base = "X"
		}
		ops := []Op{OpW, OpWR, OpR, OpN}
		op := ops[int(opSel)%len(ops)]
		it := item(base, data.NewInt(argI))
		d := Desc{Op: op, Item: it, Val: data.NewInt(val)}
		tpl := Template{Op: op, Item: ItemT(base, Param("k")), ValT: Param("v")}
		b, ok := tpl.Match(d)
		if !ok {
			return false
		}
		got, err := tpl.Subst(b)
		if err != nil {
			return false
		}
		return got.Equal(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: a template never matches a descriptor with a different op.
func TestQuickOpMismatchNeverMatches(t *testing.T) {
	f := func(a, b uint8) bool {
		ops := []Op{OpW, OpWs, OpWR, OpRR, OpR, OpN}
		opA, opB := ops[int(a)%len(ops)], ops[int(b)%len(ops)]
		if opA == opB {
			return true
		}
		tpl := Template{Op: opA, Item: ItemT("X"), OldT: Wild(), ValT: Wild()}
		d := Desc{Op: opB, Item: item("X"), Val: data.NewInt(1)}
		_, ok := tpl.Match(d)
		return !ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMatchRejectsBeforeAllocating: Match and MatchInto agree on every
// (template, descriptor) pair, and a pair that differs in op, item base or
// arity — nearly every pair a scan over a trace tries — costs no
// allocation.
func TestMatchRejectsBeforeAllocating(t *testing.T) {
	k := data.NewInt(7)
	templates := []Template{
		TW(ItemT("X"), Param("b")),
		TWs2(ItemT("X", Param("n")), Param("b")),
		TN(ItemT("X", Param("n")), Lit(data.NewInt(1))),
		TRR(ItemT("Y")),
		TP(time.Second),
		TF(),
	}
	descs := []Desc{
		W(item("X"), data.NewInt(1)),
		W(item("Y"), data.NewInt(1)),
		W(item("X", k), data.NewInt(1)),
		Ws(item("X", k), data.NullValue, data.NewInt(1)),
		N(item("X", k), data.NewInt(1)),
		N(item("X", k), data.NewInt(2)),
		Desc{Op: OpRR, Item: item("Y")},
		P(time.Second),
		P(time.Minute),
		{Op: OpF},
	}
	for _, tpl := range templates {
		for _, d := range descs {
			into := Bindings{}
			want := tpl.MatchInto(d, into)
			got, ok := tpl.Match(d)
			if ok != want || (ok && len(got) != len(into)) || (!ok && got != nil) {
				t.Errorf("%s vs %s: Match = %v, %v; MatchInto = %v, %v", tpl, d, got, ok, into, want)
			}
			shapeDiffers := tpl.Op != d.Op || tpl.Op == OpF ||
				(tpl.Op.HasItem() && (tpl.Item.Base != d.Item.Base || len(tpl.Item.Args) != len(d.Item.Args)))
			if !shapeDiffers {
				continue
			}
			if n := testing.AllocsPerRun(10, func() { tpl.Match(d) }); n != 0 {
				t.Errorf("%s vs %s: rejected after %v allocations", tpl, d, n)
			}
		}
	}
}

// Equal reports descriptor equality.
func (d Desc) Equal(e Desc) bool {
	return d.Op == e.Op &&
		d.Item.Key() == e.Item.Key() &&
		d.OldVal.Equal(e.OldVal) &&
		d.Val.Equal(e.Val) &&
		d.Period == e.Period
}

// Spontaneous reports whether the event occurred independently of the
// constraint manager (Appendix A.2 property 4).
func (e *Event) Spontaneous() bool { return e.Rule == "" && e.Trigger == nil }

// TestEventSize pins the recorded event at 240 bytes or less: its
// descriptor holds two four-word Values, and every write the trace keeps
// is one of these.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got > 240 {
		t.Fatalf("unsafe.Sizeof(Event{}) = %d, want <= 240", got)
	}
}
