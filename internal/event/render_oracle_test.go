package event

import (
	"fmt"
	"math"
	"testing"
	"time"

	"cmtk/internal/data"
)

// Desc.String as it was before it became one conversion of AppendTo, kept
// verbatim (bar the name) as the oracle TestRenderMatchesOracle holds the
// append form to.  Its %s verbs call ItemName.String and Value.String,
// which the data package's TestRenderMatchesOracle holds to their own old
// bodies, so this is the old descriptor rendering end to end.
func oracleDescString(d Desc) string {
	switch d.Op {
	case OpF:
		return "F"
	case OpP:
		return fmt.Sprintf("P(%g)", d.Period.Seconds())
	case OpRR:
		return fmt.Sprintf("RR(%s)", d.Item)
	case OpWs:
		if d.OldVal.IsNull() {
			return fmt.Sprintf("Ws(%s, %s)", d.Item, d.Val)
		}
		return fmt.Sprintf("Ws(%s, %s, %s)", d.Item, d.OldVal, d.Val)
	default:
		return fmt.Sprintf("%s(%s, %s)", d.Op, d.Item, d.Val)
	}
}

// TestRenderMatchesOracle renders every op, including OpInvalid and
// values outside the enumeration, over items with zero to three
// arguments, every value shape the literal syntax distinguishes as both
// old and new value (so Ws appears with and without an old value), and
// periods of zero, 1.5 s and 3 ns.  Fields an op does not use are set
// too: rendering must ignore them.
func TestRenderMatchesOracle(t *testing.T) {
	values := []data.Value{
		data.NullValue, data.NewBool(true), data.NewBool(false),
		data.NewInt(0), data.NewInt(-7), data.NewInt(math.MaxInt64), data.NewInt(math.MinInt64),
		data.NewFloat(1.5), data.NewFloat(1e21), data.NewFloat(math.Copysign(0, -1)),
		data.NewFloat(math.Inf(1)), data.NewFloat(math.Inf(-1)), data.NewFloat(math.NaN()),
		data.NewString(""), data.NewString(`"`), data.NewString("\x00"),
		data.NewString(","), data.NewString(")"), data.NewString("\xff\xfe"),
	}
	items := []data.ItemName{
		data.Item("X"),
		data.Item("salary1", data.NewString("e7")),
		data.Item("phone", data.NewString("a, b)"), data.NewInt(-3)),
		data.Item("f", data.NullValue, data.NewFloat(2.5), data.NewString("\x00\"")),
	}
	ops := []Op{OpInvalid, OpW, OpWs, OpWR, OpRR, OpR, OpN, OpP, OpF, Op(-1), Op(9), Op(42)}
	periods := []time.Duration{0, 1500 * time.Millisecond, 3 * time.Nanosecond}
	const prefix = "pre:"
	n := 0
	for _, op := range ops {
		for _, item := range items {
			for _, old := range values {
				for _, v := range values {
					for _, p := range periods {
						d := Desc{Op: op, Item: item, OldVal: old, Val: v, Period: p}
						want := oracleDescString(d)
						if got := d.String(); got != want {
							t.Fatalf("%#v: String = %q, oracle %q", d, got, want)
						}
						if got := string(d.AppendTo([]byte(prefix))); got != prefix+want {
							t.Fatalf("%#v: AppendTo = %q, want %q", d, got, prefix+want)
						}
						n++
					}
				}
			}
		}
	}
	t.Logf("%d descriptors agree", n)
}
