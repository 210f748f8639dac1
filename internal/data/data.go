// Package data defines the values, data-item names and interpretations of
// the paper's formal framework (Appendix A.1).
//
// A data item is anything a Raw Information Source stores at whatever
// granularity the deployment chooses: a single object, a column value of a
// keyed row, or a whole relation.  Items are named, and names may be
// parameterized — salary1(n) from Section 4.2 denotes the family of items
// obtained by binding n.  An Interpretation maps item names to values and
// represents a (possibly partial) state of the whole system; items absent
// from the map are "null", meaning they may take any value.
package data

import (
	"cmp"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates the value types the toolkit moves between systems.  The
// deliberately small set mirrors what heterogeneous sources can all
// represent; richer types are carried as strings by the translators.
type Kind int

// Value kinds.
const (
	Null Kind = iota
	Bool
	Int
	Float
	String
)

func (k Kind) String() string {
	switch k {
	case Null:
		return "null"
	case Bool:
		return "bool"
	case Int:
		return "int"
	case Float:
		return "float"
	case String:
		return "string"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is an immutable tagged scalar.  The zero Value is Null.  It is
// four words: the kind, one word of payload that holds an Int's bits, a
// Float's math.Float64bits or a Bool as 0 or 1, and a String's header.
// Because a Float is held as bits, == would call -0 and +0 different and
// a NaN equal to itself; the zero-length func field makes == a compile
// error, so every comparison goes through Equal.
type Value struct {
	_    [0]func()
	kind Kind
	n    uint64
	s    string
}

// NullValue is the null Value.
var NullValue = Value{}

// NewInt returns an Int value.
func NewInt(i int64) Value { return Value{kind: Int, n: uint64(i)} }

// NewFloat returns a Float value.
func NewFloat(f float64) Value { return Value{kind: Float, n: math.Float64bits(f)} }

// NewString returns a String value.
func NewString(s string) Value { return Value{kind: String, s: s} }

// NewBool returns a Bool value.
func NewBool(b bool) Value {
	if b {
		return Value{kind: Bool, n: 1}
	}
	return Value{kind: Bool}
}

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is Null.
func (v Value) IsNull() bool { return v.kind == Null }

// Int returns the integer payload; valid only when Kind()==Int.
func (v Value) Int() int64 { return int64(v.n) }

// Float returns the float payload; valid only when Kind()==Float.
func (v Value) Float() float64 { return math.Float64frombits(v.n) }

// Str returns the string payload; valid only when Kind()==String.
func (v Value) Str() string { return v.s }

// Bool returns the bool payload; valid only when Kind()==Bool.
func (v Value) Bool() bool { return v.n != 0 }

// AsFloat converts numeric values to float64.  The second result is false
// for non-numeric values.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case Int:
		return float64(v.Int()), true
	case Float:
		return v.Float(), true
	default:
		return 0, false
	}
}

// Truthy reports whether the value counts as true in a rule condition:
// boolean true, nonzero number, or nonempty string.
func (v Value) Truthy() bool {
	switch v.kind {
	case Bool, Int:
		return v.n != 0
	case Float:
		return v.Float() != 0
	case String:
		return v.s != ""
	default:
		return false
	}
}

// Equal reports value equality.  Int and Float compare numerically, so
// NewInt(3).Equal(NewFloat(3)) is true: heterogeneous sources disagree on
// numeric representation and copy constraints must not care.  The
// comparison is exact: two Ints are equal only as the same int64, and an
// Int equals a Float only when the float is integral and converts back to
// that int64.
func (v Value) Equal(w Value) bool {
	if v.kind == Null || w.kind == Null {
		return v.kind == w.kind
	}
	if c, ok := v.compareExact(w); ok {
		return c == 0
	}
	if vf, ok := v.AsFloat(); ok {
		if wf, ok := w.AsFloat(); ok {
			return vf == wf
		}
		return false
	}
	if v.kind != w.kind {
		return false
	}
	switch v.kind {
	case Bool:
		return v.n == w.n
	case String:
		return v.s == w.s
	}
	return false
}

// Compare orders two values.  Numerics order numerically — exactly when
// an Int is involved, see Equal — strings lexicographically, bools
// false<true.  The second result is false when the values are not
// comparable (mixed non-numeric kinds or nulls).
func (v Value) Compare(w Value) (int, bool) {
	if c, ok := v.compareExact(w); ok {
		return c, true
	}
	if vf, vok := v.AsFloat(); vok {
		wf, wok := w.AsFloat()
		if !wok {
			return 0, false
		}
		switch {
		case vf < wf:
			return -1, true
		case vf > wf:
			return 1, true
		default:
			return 0, true
		}
	}
	if v.kind != w.kind {
		return 0, false
	}
	switch v.kind {
	case String:
		return strings.Compare(v.s, w.s), true
	case Bool:
		return cmp.Compare(v.n, w.n), true
	default:
		return 0, false
	}
}

// compareExact orders two numbers of which at least one is an Int, without
// rounding the Int to a float64.  ok is false for any other pair, and for
// a NaN, which stays on the float path.
func (v Value) compareExact(w Value) (int, bool) {
	switch {
	case v.kind == Int && w.kind == Int:
		return cmp.Compare(v.Int(), w.Int()), true
	case v.kind == Int && w.kind == Float && !math.IsNaN(w.Float()):
		return compareIntFloat(v.Int(), w.Float()), true
	case v.kind == Float && w.kind == Int && !math.IsNaN(v.Float()):
		return -compareIntFloat(w.Int(), v.Float()), true
	}
	return 0, false
}

// compareIntFloat orders i against f, which is not NaN.
func compareIntFloat(i int64, f float64) int {
	switch {
	case f >= 0x1p63:
		return -1
	case f < -0x1p63:
		return 1
	}
	// -2^63 <= f < 2^63, so f's integral part is an int64, and f minus it
	// is exact.
	t := int64(f)
	if c := cmp.Compare(i, t); c != 0 {
		return c
	}
	switch frac := f - float64(t); {
	case frac > 0:
		return -1
	case frac < 0:
		return 1
	}
	return 0
}

// Arith applies a binary arithmetic operator (+, -, *, /) to numeric
// values.  Two Ints yield an Int except for division, which yields a Float
// when it does not divide evenly.  It returns an error for non-numeric
// operands or division by zero.
func Arith(op byte, a, b Value) (Value, error) {
	af, aok := a.AsFloat()
	bf, bok := b.AsFloat()
	if !aok || !bok {
		return NullValue, fmt.Errorf("data: arithmetic %c on non-numeric values %s, %s", op, a, b)
	}
	bothInt := a.kind == Int && b.kind == Int
	ai, bi := a.Int(), b.Int()
	switch op {
	case '+':
		if bothInt {
			return NewInt(ai + bi), nil
		}
		return NewFloat(af + bf), nil
	case '-':
		if bothInt {
			return NewInt(ai - bi), nil
		}
		return NewFloat(af - bf), nil
	case '*':
		if bothInt {
			return NewInt(ai * bi), nil
		}
		return NewFloat(af * bf), nil
	case '/':
		if bf == 0 {
			return NullValue, fmt.Errorf("data: division by zero")
		}
		if bothInt && ai%bi == 0 {
			return NewInt(ai / bi), nil
		}
		return NewFloat(af / bf), nil
	default:
		return NullValue, fmt.Errorf("data: unknown arithmetic operator %q", string(op))
	}
}

// Abs returns the absolute value of a numeric value, preserving kind.
func Abs(v Value) (Value, error) {
	switch v.kind {
	case Int:
		if i := v.Int(); i < 0 {
			return NewInt(-i), nil
		}
		return v, nil
	case Float:
		return NewFloat(math.Abs(v.Float())), nil
	default:
		return NullValue, fmt.Errorf("data: abs of non-numeric value %s", v)
	}
}

// AppendLiteral appends the value's rule-language literal (null, true, 42,
// 3.5, "text") to dst; it is the one writer of that syntax.
func (v Value) AppendLiteral(dst []byte) []byte {
	switch v.kind {
	case Null:
		return append(dst, "null"...)
	case Bool:
		return strconv.AppendBool(dst, v.Bool())
	case Int:
		return strconv.AppendInt(dst, v.Int(), 10)
	case Float:
		return strconv.AppendFloat(dst, v.Float(), 'g', -1, 64)
	case String:
		return strconv.AppendQuote(dst, v.s)
	default:
		return append(dst, '?')
	}
}

// String renders the value's literal (see AppendLiteral).
func (v Value) String() string {
	var buf [32]byte
	return string(v.AppendLiteral(buf[:0]))
}

// ParseLiteral parses the String form back to a Value.
func ParseLiteral(s string) (Value, error) {
	switch s {
	case "null":
		return NullValue, nil
	case "true":
		return NewBool(true), nil
	case "false":
		return NewBool(false), nil
	}
	if len(s) >= 2 && s[0] == '"' {
		u, err := strconv.Unquote(s)
		if err != nil {
			return NullValue, fmt.Errorf("data: bad string literal %s: %w", s, err)
		}
		return NewString(u), nil
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return NewInt(i), nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return NewFloat(f), nil
	}
	return NullValue, fmt.Errorf("data: unparseable literal %q", s)
}

// ItemName identifies a data item: a base name and, for parameterized
// families like salary1(n), the ground argument values the parameters were
// bound to.  The zero ItemName is invalid.
type ItemName struct {
	Base string
	Args []Value
}

// Item constructs an ItemName.
func Item(base string, args ...Value) ItemName {
	return ItemName{Base: base, Args: args}
}

// AppendKey appends the item's key, salary1("emp7") or a bare base name,
// to dst; it is the one writer of the key format.  A lookup renders into a
// stack buffer and indexes m[string(key)], which does not allocate.
func (n ItemName) AppendKey(dst []byte) []byte {
	dst = append(dst, n.Base...)
	if len(n.Args) == 0 {
		return dst
	}
	dst = append(dst, '(')
	for i, a := range n.Args {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = a.AppendLiteral(dst)
	}
	return append(dst, ')')
}

// String renders the item's key (see AppendKey).  An argument-free item's
// key is its base name, returned without allocating.
func (n ItemName) String() string {
	if len(n.Args) == 0 {
		return n.Base
	}
	var buf [64]byte
	return string(n.AppendKey(buf[:0]))
}

// Key returns the canonical map key for the item.
func (n ItemName) Key() string { return n.String() }

// ParseItemName parses the String form of an item name.
func ParseItemName(s string) (ItemName, error) {
	s = strings.TrimSpace(s)
	open := strings.IndexByte(s, '(')
	if open < 0 {
		if s == "" {
			return ItemName{}, fmt.Errorf("data: empty item name")
		}
		return ItemName{Base: s}, nil
	}
	if !strings.HasSuffix(s, ")") {
		return ItemName{}, fmt.Errorf("data: malformed item name %q", s)
	}
	base := strings.TrimSpace(s[:open])
	if base == "" {
		return ItemName{}, fmt.Errorf("data: malformed item name %q", s)
	}
	inner := s[open+1 : len(s)-1]
	var args []Value
	for _, part := range splitTopLevel(inner) {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := ParseLiteral(part)
		if err != nil {
			return ItemName{}, fmt.Errorf("data: item name %q: %w", s, err)
		}
		args = append(args, v)
	}
	return ItemName{Base: base, Args: args}, nil
}

// splitTopLevel splits on commas that are not inside quotes.
func splitTopLevel(s string) []string {
	var parts []string
	depth := 0
	inStr := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case inStr:
			if c == '\\' {
				i++
			} else if c == '"' {
				inStr = false
			}
		case c == '"':
			inStr = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == ',' && depth == 0:
			parts = append(parts, s[start:i])
			start = i + 1
		}
	}
	parts = append(parts, s[start:])
	return parts
}

// Interpretation maps item keys to values; it is the paper's notion of a
// (partial) system state.  A missing key means null: the item may take any
// value.  Interpretations are value-like; use Clone before mutating a
// shared one.
type Interpretation map[string]Value

// NewInterpretation returns an empty interpretation.
func NewInterpretation() Interpretation { return Interpretation{} }

// Get returns the value bound to item n, or NullValue when unbound.
func (in Interpretation) Get(n ItemName) Value {
	var buf [64]byte
	return in[string(n.AppendKey(buf[:0]))]
}

// Has reports whether item n is bound to a non-null value.
func (in Interpretation) Has(n ItemName) bool { return !in.Get(n).IsNull() }

// Set binds item n to v in place.  Binding to null removes the entry.
func (in Interpretation) Set(n ItemName, v Value) {
	if v.IsNull() {
		var buf [64]byte
		delete(in, string(n.AppendKey(buf[:0])))
		return
	}
	in[n.Key()] = v
}

// With returns a copy of the interpretation with item n bound to v.  This
// is the old−{X=a}∪{X=b} update of Appendix A.2 property 2.
func (in Interpretation) With(n ItemName, v Value) Interpretation {
	out := in.Clone()
	out.Set(n, v)
	return out
}

// Clone returns a deep copy.
func (in Interpretation) Clone() Interpretation {
	out := make(Interpretation, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

// Equal reports whether two interpretations bind exactly the same items to
// equal values.
func (in Interpretation) Equal(other Interpretation) bool {
	if len(in) != len(other) {
		return false
	}
	for k, v := range in {
		w, ok := other[k]
		if !ok || !v.Equal(w) {
			return false
		}
	}
	return true
}

// Keys returns the bound item keys in sorted order, for deterministic
// printing and hashing.
func (in Interpretation) Keys() []string {
	ks := make([]string, 0, len(in))
	for k := range in {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// String renders {X=5, Y="a"} deterministically.
func (in Interpretation) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range in.Keys() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(in[k].String())
	}
	b.WriteByte('}')
	return b.String()
}
