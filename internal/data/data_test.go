package data

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{NullValue, Null},
		{NewBool(true), Bool},
		{NewInt(7), Int},
		{NewFloat(2.5), Float},
		{NewString("x"), String},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%s: kind = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
	}
	if !NullValue.IsNull() || NewInt(0).IsNull() {
		t.Error("IsNull misbehaves")
	}
}

// nanPayload is a quiet NaN with a nonzero payload, which a round trip
// through the Value's one payload word must keep bit for bit.
var nanPayload = math.Float64frombits(0x7ff8_0000_0000_0abc)

// TestValueLayout pins the four-word Value: 32 bytes, and every Float and
// Int payload back bit for bit, including the ones == on a float64 would
// confuse.  Equal, not ==, decides equality: -0 equals +0 and a NaN equals
// nothing, whatever their bits.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
	for _, f := range []float64{
		math.Copysign(0, -1), nanPayload, math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64,
	} {
		if got := NewFloat(f).Float(); math.Float64bits(got) != math.Float64bits(f) {
			t.Errorf("NewFloat(%#x).Float() = %#x", math.Float64bits(f), math.Float64bits(got))
		}
	}
	for _, i := range []int64{math.MinInt64, math.MaxInt64, -1} {
		if got := NewInt(i).Int(); got != i {
			t.Errorf("NewInt(%d).Int() = %d", i, got)
		}
	}
	if !NewBool(true).Bool() || NewBool(false).Bool() {
		t.Error("Bool does not round-trip")
	}
	if !NewFloat(math.Copysign(0, -1)).Equal(NewFloat(0)) {
		t.Error("-0 does not equal +0")
	}
	if v := NewFloat(nanPayload); v.Equal(v) {
		t.Error("a NaN equals itself")
	}
}

func TestValueEqualNumericCoercion(t *testing.T) {
	if !NewInt(3).Equal(NewFloat(3)) {
		t.Error("int 3 != float 3")
	}
	if NewInt(3).Equal(NewFloat(3.5)) {
		t.Error("int 3 == float 3.5")
	}
	if NewInt(0).Equal(NewBool(false)) {
		t.Error("int 0 == bool false")
	}
	if !NewString("a").Equal(NewString("a")) || NewString("a").Equal(NewString("b")) {
		t.Error("string equality broken")
	}
	if !NullValue.Equal(NullValue) || NullValue.Equal(NewInt(0)) {
		t.Error("null equality broken")
	}
}

// TestValueEqualIsExact: numbers compare by their exact values, never by
// rounding an Int to a float64.
func TestValueEqualIsExact(t *testing.T) {
	const big = 10000000000000000 // 10^16, above 2^53
	if NewInt(big + 1).Equal(NewInt(big)) {
		t.Error("Int(10^16+1) == Int(10^16)")
	}
	if NewInt(big + 1).Equal(NewFloat(big)) {
		t.Error("Int(10^16+1) == Float(10^16)")
	}
	if !NewInt(big).Equal(NewFloat(big)) {
		t.Error("Int(10^16) != Float(10^16)")
	}
	if NewInt(math.MaxInt64).Equal(NewFloat(0x1p63)) {
		t.Error("Int(2^63-1) == Float(2^63)")
	}
	if !NewInt(math.MinInt64).Equal(NewFloat(-0x1p63)) {
		t.Error("Int(-2^63) != Float(-2^63)")
	}
	if c, ok := NewInt(big + 1).Compare(NewFloat(big)); !ok || c != 1 {
		t.Errorf("Compare(Int(10^16+1), Float(10^16)) = %d, %v, want 1, true", c, ok)
	}
}

func TestValueCompare(t *testing.T) {
	lt := func(a, b Value) {
		t.Helper()
		c, ok := a.Compare(b)
		if !ok || c >= 0 {
			t.Errorf("Compare(%s,%s) = %d,%v want <0,true", a, b, c, ok)
		}
	}
	lt(NewInt(1), NewInt(2))
	lt(NewInt(1), NewFloat(1.5))
	lt(NewFloat(-1), NewInt(0))
	lt(NewString("a"), NewString("b"))
	lt(NewBool(false), NewBool(true))
	if _, ok := NewString("a").Compare(NewInt(1)); ok {
		t.Error("string vs int comparable")
	}
	if _, ok := NullValue.Compare(NullValue); ok {
		t.Error("null vs null comparable")
	}
	if c, ok := NewInt(5).Compare(NewInt(5)); !ok || c != 0 {
		t.Error("equal ints compare nonzero")
	}
}

func TestArith(t *testing.T) {
	got, err := Arith('+', NewInt(2), NewInt(3))
	if err != nil || !got.Equal(NewInt(5)) {
		t.Errorf("2+3 = %s, %v", got, err)
	}
	got, err = Arith('*', NewInt(2), NewFloat(1.5))
	if err != nil || !got.Equal(NewFloat(3)) {
		t.Errorf("2*1.5 = %s, %v", got, err)
	}
	got, err = Arith('/', NewInt(7), NewInt(2))
	if err != nil || !got.Equal(NewFloat(3.5)) {
		t.Errorf("7/2 = %s, %v", got, err)
	}
	got, err = Arith('/', NewInt(6), NewInt(2))
	if err != nil || got.Kind() != Int || got.Int() != 3 {
		t.Errorf("6/2 = %s (%v), %v", got, got.Kind(), err)
	}
	if _, err := Arith('/', NewInt(1), NewInt(0)); err == nil {
		t.Error("division by zero succeeded")
	}
	if _, err := Arith('+', NewString("a"), NewInt(1)); err == nil {
		t.Error("string arithmetic succeeded")
	}
	if _, err := Arith('%', NewInt(1), NewInt(1)); err == nil {
		t.Error("unknown operator succeeded")
	}
}

func TestAbs(t *testing.T) {
	if v, err := Abs(NewInt(-4)); err != nil || v.Int() != 4 {
		t.Errorf("abs(-4) = %s, %v", v, err)
	}
	if v, err := Abs(NewFloat(-2.5)); err != nil || v.Float() != 2.5 {
		t.Errorf("abs(-2.5) = %s, %v", v, err)
	}
	if _, err := Abs(NewString("x")); err == nil {
		t.Error("abs of string succeeded")
	}
}

func TestTruthy(t *testing.T) {
	for _, v := range []Value{NewBool(true), NewInt(1), NewFloat(0.5), NewString("x")} {
		if !v.Truthy() {
			t.Errorf("%s not truthy", v)
		}
	}
	for _, v := range []Value{NullValue, NewBool(false), NewInt(0), NewFloat(0), NewString("")} {
		if v.Truthy() {
			t.Errorf("%s truthy", v)
		}
	}
}

func TestLiteralRoundTrip(t *testing.T) {
	vals := []Value{
		NullValue, NewBool(true), NewBool(false),
		NewInt(0), NewInt(-42), NewInt(math.MaxInt64),
		NewFloat(3.5), NewFloat(-0.25),
		NewString(""), NewString("hello world"), NewString(`quo"te`), NewString("comma, paren("),
	}
	for _, v := range vals {
		got, err := ParseLiteral(v.String())
		if err != nil {
			t.Errorf("ParseLiteral(%s): %v", v, err)
			continue
		}
		if !got.Equal(v) || got.Kind() != v.Kind() {
			t.Errorf("round trip %s -> %s", v, got)
		}
	}
	for _, bad := range []string{"", "nope nope", `"unterminated`} {
		if _, err := ParseLiteral(bad); err == nil {
			t.Errorf("ParseLiteral(%q) succeeded", bad)
		}
	}
}

func TestItemNameString(t *testing.T) {
	n := Item("salary1", NewString("emp7"))
	if got := n.String(); got != `salary1("emp7")` {
		t.Errorf("String = %s", got)
	}
	if got := Item("X").String(); got != "X" {
		t.Errorf("bare String = %s", got)
	}
	m := Item("phone", NewString("ann"), NewInt(2))
	if got := m.String(); got != `phone("ann", 2)` {
		t.Errorf("two-arg String = %s", got)
	}
}

func TestItemNameEqual(t *testing.T) {
	// Two names denote the same item exactly when their keys are equal.
	for _, c := range []struct {
		n    ItemName
		want string
	}{
		{Item("x", NewInt(1)), "x(1)"},
		{Item("x", NewInt(2)), "x(2)"},
		{Item("y", NewInt(1)), "y(1)"},
		{Item("x"), "x"},
		{Item("x", NewString("1")), `x("1")`},
		// Numeric coercion applies inside arguments too.
		{Item("x", NewFloat(1)), "x(1)"},
	} {
		if got := c.n.Key(); got != c.want {
			t.Errorf("%v.Key() = %s, want %s", c.n, got, c.want)
		}
	}
}

func TestParseItemNameRoundTrip(t *testing.T) {
	names := []ItemName{
		Item("X"),
		Item("salary1", NewString("emp7")),
		Item("phone", NewString("a,b"), NewInt(3)),
		Item("f", NewFloat(2.5), NewBool(true)),
	}
	for _, n := range names {
		got, err := ParseItemName(n.String())
		if err != nil {
			t.Errorf("ParseItemName(%s): %v", n, err)
			continue
		}
		if got.Key() != n.Key() {
			t.Errorf("round trip %s -> %s", n, got)
		}
	}
	for _, bad := range []string{"", "x(1", "(1)", "x(nope nope)"} {
		if _, err := ParseItemName(bad); err == nil {
			t.Errorf("ParseItemName(%q) succeeded", bad)
		}
	}
}

func TestInterpretationBasics(t *testing.T) {
	in := NewInterpretation()
	x := Item("X")
	if in.Has(x) || !in.Get(x).IsNull() {
		t.Error("empty interpretation has bindings")
	}
	in.Set(x, NewInt(5))
	if !in.Has(x) || !in.Get(x).Equal(NewInt(5)) {
		t.Error("Set/Get broken")
	}
	in.Set(x, NullValue)
	if in.Has(x) || len(in) != 0 {
		t.Error("Set null did not delete")
	}
}

func TestInterpretationWithIsCopy(t *testing.T) {
	in := NewInterpretation()
	x, y := Item("X"), Item("Y")
	in.Set(x, NewInt(1))
	out := in.With(y, NewInt(2))
	if in.Has(y) {
		t.Error("With mutated receiver")
	}
	if !out.Get(x).Equal(NewInt(1)) || !out.Get(y).Equal(NewInt(2)) {
		t.Error("With result wrong")
	}
	// Mutating the copy must not affect the original.
	out.Set(x, NewInt(9))
	if !in.Get(x).Equal(NewInt(1)) {
		t.Error("Clone aliasing")
	}
}

func TestInterpretationEqualAndString(t *testing.T) {
	a := Interpretation{"X": NewInt(1), "Y": NewString("a")}
	b := Interpretation{"Y": NewString("a"), "X": NewInt(1)}
	c := Interpretation{"X": NewInt(2), "Y": NewString("a")}
	if !a.Equal(b) || a.Equal(c) || a.Equal(Interpretation{}) {
		t.Error("Equal broken")
	}
	if got := a.String(); got != `{X=1, Y="a"}` {
		t.Errorf("String = %s", got)
	}
	if got := (Interpretation{}).String(); got != "{}" {
		t.Errorf("empty String = %s", got)
	}
}

func TestNilInterpretationReads(t *testing.T) {
	var in Interpretation
	if in.Has(Item("X")) || !in.Get(Item("X")).IsNull() {
		t.Error("nil interpretation reads broken")
	}
}

// Property: ParseLiteral(v.String()) == v for generated values.
func TestQuickLiteralRoundTrip(t *testing.T) {
	f := func(i int64, fl float64, s string, b bool, sel uint8) bool {
		var v Value
		switch sel % 5 {
		case 0:
			v = NullValue
		case 1:
			v = NewBool(b)
		case 2:
			v = NewInt(i)
		case 3:
			if math.IsNaN(fl) || math.IsInf(fl, 0) {
				return true // literals do not represent these
			}
			v = NewFloat(fl)
		case 4:
			v = NewString(s)
		}
		got, err := ParseLiteral(v.String())
		if err != nil {
			return false
		}
		// Float formatting may parse back as Int when integral; Equal
		// tolerates that by numeric coercion.
		return got.Equal(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: With never mutates and Set-then-Get round-trips.
func TestQuickInterpretationSetGet(t *testing.T) {
	f := func(keys []string, vals []int64) bool {
		in := NewInterpretation()
		for i, k := range keys {
			if k == "" {
				continue
			}
			var v Value
			if i < len(vals) {
				v = NewInt(vals[i])
			} else {
				v = NewInt(int64(i))
			}
			in.Set(Item(k), v)
			if !in.Get(Item(k)).Equal(v) {
				return false
			}
		}
		clone := in.Clone()
		if !clone.Equal(in) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzValueOrder checks Equal and Compare over Int and Float pairs against
// math/big's exact order.  kinds picks each side's kind: bit 0 makes the
// first an Int (from i), bit 1 the second.  For pairs without a NaN,
// Equal agrees with Compare == 0 and Compare is antisymmetric.
func FuzzValueOrder(f *testing.F) {
	for _, c := range []struct {
		i, j  int64
		x, y  float64
		kinds uint8
	}{
		{1 << 53, 1<<53 + 1, 0x1p53, 0x1p53, 1},
		{1<<53 + 1, 0, 0, 0x1p53, 1},
		{0, 0, 0, math.Copysign(0, -1), 1},
		{0, 0, math.Inf(1), math.Inf(-1), 0},
		{math.MaxInt64, 0, 0, 0x1p63, 1},
		{math.MinInt64, 0, 0, -0x1p63, 1},
		{0, 1, 0.5, 0, 2},
		{0, 0, math.NaN(), 1, 2},
		{3, 3, 0, 0, 3},
		{math.MinInt64, math.MaxInt64, 0, 0, 3},
		{0, 0, math.Copysign(0, -1), 0, 0},
		{0, 0, nanPayload, nanPayload, 0},
		{0, 0, math.SmallestNonzeroFloat64, math.Copysign(0, -1), 0},
		{0, 0, 0, -math.SmallestNonzeroFloat64, 1},
		{math.MaxInt64, 0, 0, math.Inf(1), 1},
		{math.MinInt64, 0, 0, math.Inf(-1), 1},
	} {
		f.Add(c.i, c.j, c.x, c.y, c.kinds)
	}
	f.Fuzz(func(t *testing.T, i, j int64, x, y float64, kinds uint8) {
		v, w := NewFloat(x), NewFloat(y)
		if kinds&1 != 0 {
			v = NewInt(i)
		}
		if kinds&2 != 0 {
			w = NewInt(j)
		}
		eq := v.Equal(w)
		c, ok := v.Compare(w)
		if !ok {
			t.Fatalf("Compare(%s, %s) not comparable", v, w)
		}
		if isNaN(v) || isNaN(w) {
			if eq {
				t.Fatalf("%s equals %s", v, w)
			}
			return
		}
		if want := exact(v).Cmp(exact(w)); c != want {
			t.Fatalf("Compare(%s, %s) = %d, want %d", v, w, c, want)
		}
		if eq != (c == 0) {
			t.Fatalf("Equal(%s, %s) = %v but Compare = %d", v, w, eq, c)
		}
		if r, _ := w.Compare(v); r != -c {
			t.Fatalf("Compare(%s, %s) = %d but Compare(%s, %s) = %d", v, w, c, w, v, r)
		}
	})
}

func isNaN(v Value) bool { return v.Kind() == Float && math.IsNaN(v.Float()) }

// exact is v's exact value as a big.Float.
func exact(v Value) *big.Float {
	if v.Kind() == Int {
		return new(big.Float).SetInt64(v.Int())
	}
	return new(big.Float).SetFloat64(v.Float())
}
