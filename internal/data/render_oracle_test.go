package data

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// Value.String and ItemName.String as they were before both became one
// conversion of AppendLiteral and AppendKey, kept verbatim (bar the names,
// and the payload read through its accessors now that a Value holds it in
// one word) as the oracles TestRenderMatchesOracle and FuzzItemKey hold
// the append forms to.  The key was built with a strings.Builder and each argument
// literal was a string of its own.

func oracleValueString(v Value) string {
	switch v.kind {
	case Null:
		return "null"
	case Bool:
		return strconv.FormatBool(v.Bool())
	case Int:
		return strconv.FormatInt(v.Int(), 10)
	case Float:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case String:
		return strconv.Quote(v.s)
	default:
		return "?"
	}
}

func oracleItemString(n ItemName) string {
	if len(n.Args) == 0 {
		return n.Base
	}
	var b strings.Builder
	b.WriteString(n.Base)
	b.WriteByte('(')
	for i, a := range n.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(oracleValueString(a))
	}
	b.WriteByte(')')
	return b.String()
}

// renderGrid is every value shape the literal syntax distinguishes: null,
// both bools, zero, negative and 19-digit ints, the float forms that
// render oddly (exponent, negative zero, infinities, NaN), strings that
// need quoting or hold the key syntax's own punctuation or invalid UTF-8,
// and a kind outside the enumeration.
var renderGrid = []Value{
	NullValue, NewBool(true), NewBool(false),
	NewInt(0), NewInt(-7), NewInt(math.MaxInt64), NewInt(math.MinInt64),
	NewFloat(1.5), NewFloat(1e21), NewFloat(math.Copysign(0, -1)),
	NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)), NewFloat(math.NaN()),
	NewString(""), NewString("e7"), NewString(`"`), NewString("\x00"),
	NewString(","), NewString(")"), NewString("\xff\xfe"),
	{kind: Kind(9)},
}

// TestRenderMatchesOracle holds AppendLiteral, AppendKey, String and Key
// to the old renderers over items with zero to three arguments drawn from
// renderGrid, appending both to an empty and to a non-empty buffer.
func TestRenderMatchesOracle(t *testing.T) {
	const prefix = "pre:"
	for _, v := range renderGrid {
		want := oracleValueString(v)
		if got := v.String(); got != want {
			t.Errorf("Value.String = %q, oracle %q", got, want)
		}
		if got := string(v.AppendLiteral([]byte(prefix))); got != prefix+want {
			t.Errorf("AppendLiteral = %q, want %q", got, prefix+want)
		}
	}
	items := []ItemName{Item("X"), Item("")}
	for _, a := range renderGrid {
		items = append(items, Item("salary1", a))
		for _, b := range renderGrid {
			items = append(items, Item("phone", a, b))
			for _, c := range renderGrid {
				items = append(items, Item("f", a, b, c))
			}
		}
	}
	for _, n := range items {
		want := oracleItemString(n)
		if got := n.String(); got != want {
			t.Fatalf("ItemName.String = %q, oracle %q", got, want)
		}
		if got := n.Key(); got != want {
			t.Fatalf("Key = %q, oracle %q", got, want)
		}
		if got := string(n.AppendKey([]byte(prefix))); got != prefix+want {
			t.Fatalf("AppendKey = %q, want %q", got, prefix+want)
		}
	}
}

// FuzzItemKey: ParseItemName reads route files, checkpoint keys and CM-RID
// items.  For every name it accepts, the key renders as the oracle does,
// and rendering is a fixpoint after one parse round (the first round may
// still canonicalise: x(-0.0) parses to Float(-0), which renders "-0" and
// parses back as Int(0)).  A panic fails the target.
func FuzzItemKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		n, err := ParseItemName(s)
		if err != nil {
			return
		}
		k1 := string(n.AppendKey(nil))
		if want := oracleItemString(n); k1 != want {
			t.Fatalf("ParseItemName(%q): AppendKey %q, oracle %q", s, k1, want)
		}
		n2, err := ParseItemName(k1)
		if err != nil {
			t.Fatalf("key %q of ParseItemName(%q) does not parse: %v", k1, s, err)
		}
		k2 := n2.Key()
		n3, err := ParseItemName(k2)
		if err != nil {
			t.Fatalf("key %q does not parse: %v", k2, err)
		}
		if k3 := n3.Key(); k3 != k2 {
			t.Fatalf("ParseItemName(%q): keys %q -> %q -> %q, not a fixpoint", s, k1, k2, k3)
		}
	})
}
