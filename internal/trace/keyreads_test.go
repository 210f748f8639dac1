package trace

import (
	"runtime"
	"testing"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/event"
)

// TestKeyReadsDoNotAllocate pins the cost of the key and descriptor
// renderings for a parameterised item: a read that only looks a key up —
// Interpretation.Get/Has, a Set to null (a delete), the trace's point
// read — renders into a stack buffer and allocates nothing, and Key,
// String and Desc.String allocate exactly their result.
func TestKeyReadsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	item := data.Item("salary1", data.NewString("e7"))
	absent := data.Item("salary1", data.NewString("e8"))
	in := data.Interpretation{item.Key(): data.NewInt(100)}
	desc := event.N(item, data.NewInt(100))

	tr := New(nil)
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	tr.Append(&event.Event{Time: at, Site: "A", Desc: event.Ws(item, data.NullValue, data.NewInt(1))})
	w := tr.Append(&event.Event{Time: at, Site: "A", Desc: event.Ws(item, data.NewInt(1), data.NewInt(2))})

	var sink data.Value
	var ok bool
	var s string
	for _, c := range []struct {
		name string
		want float64
		f    func()
	}{
		{"Get", 0, func() { sink = in.Get(item) }},
		{"Has", 0, func() { ok = in.Has(item) }},
		{"Set to null", 0, func() { in.Set(absent, data.NullValue) }},
		{"ValueBefore", 0, func() { sink = tr.ValueBefore(w.Seq, item) }},
		{"ValueAfter", 0, func() { sink = tr.ValueAfter(w.Seq, item) }},
		{"Key", 1, func() { s = item.Key() }},
		{"String", 1, func() { s = item.String() }},
		{"Desc.String", 1, func() { s = desc.String() }},
	} {
		if got := testing.AllocsPerRun(100, c.f); got != c.want {
			t.Errorf("%s: %v allocations, want %v", c.name, got, c.want)
		}
	}
	if !sink.Equal(data.NewInt(2)) || !ok || s != `N(salary1("e7"), 100)` {
		t.Fatalf("reads returned %v, %v, %q", sink, ok, s)
	}
}

// TestWriteToKnownItemRendersNoKey: a write to an item that already has a
// timeline finds it through a key rendered on the stack, so 1 000 appends
// of prebuilt write events to salary1("e7") allocate only the amortized
// growth of the event log and the item's timeline, well under 0.05 per
// append.  Rendering the key to a string on every write costs 1.
func TestWriteToKnownItemRendersNoKey(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	item := data.Item("salary1", data.NewString("e7"))
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	tr := New(nil)
	tr.Append(&event.Event{Time: at, Site: "A", Desc: event.Ws(item, data.NullValue, data.NewInt(0))})
	const n = 1000
	evs := make([]event.Event, n)
	for i := range evs {
		evs[i] = event.Event{Time: at, Site: "A", Desc: event.Ws(item, data.NewInt(int64(i)), data.NewInt(int64(i+1)))}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range evs {
		tr.Append(&evs[i])
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / n; per > 0.05 {
		t.Errorf("%.3f allocations per append to a known item, want <= 0.05", per)
	}
	if got := tr.ValueAfter(evs[n-1].Seq, item); !got.Equal(data.NewInt(n)) {
		t.Fatalf("last write reads %s, want %d", got, n)
	}
}
