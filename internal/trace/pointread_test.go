package trace

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/event"
	"cmtk/internal/rule"
)

// TestPointReadMatchesMaterializedRead pins the point read to the read it
// replaces: for a random execution, at every sequence point and for every
// item, ValueBefore/ValueAfter equal StateBefore/StateAfter(seq).Get(item)
// and the clone-per-event oracle, and Event.OldValue/NewValue equal
// Old()/New().Get(item) whichever side answers — the source, an eager old,
// an eager new, or nothing at all — before and after a compaction,
// recorded by one writer and by eight.
func TestPointReadMatchesMaterializedRead(t *testing.T) {
	const n = 240
	items := append([]data.ItemName{data.Item("untouched")}, oracleItems...)
	marker := data.Interpretation{"X": data.NewInt(777), "untouched": data.NewInt(778)}
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			src, initial := buildRandom(2024, n)
			var script []*event.Event
			for _, e := range src.Events() {
				script = append(script, &event.Event{Time: e.Time, Site: e.Site, Desc: e.Desc})
			}
			tr := record(initial, script, shards)
			all := tr.Events() // Seq == index: nothing folded yet
			states := naiveStates(initial, all)

			check := func(stage string) {
				t.Helper()
				for _, e := range tr.Events() {
					for _, item := range items {
						before, after := states[e.Seq].Get(item), states[e.Seq+1].Get(item)
						for _, c := range []struct {
							what      string
							got, want data.Value
						}{
							{"ValueBefore vs StateBefore", tr.ValueBefore(e.Seq, item), tr.StateBefore(e.Seq).Get(item)},
							{"ValueAfter vs StateAfter", tr.ValueAfter(e.Seq, item), tr.StateAfter(e.Seq).Get(item)},
							{"ValueBefore vs naive", tr.ValueBefore(e.Seq, item), before},
							{"ValueAfter vs naive", tr.ValueAfter(e.Seq, item), after},
							{"OldValue vs Old", e.OldValue(item), e.Old().Get(item)},
							{"NewValue vs New", e.NewValue(item), e.New().Get(item)},
							{"OldValue vs naive", e.OldValue(item), before},
							{"NewValue vs naive", e.NewValue(item), after},
						} {
							if !c.got.Equal(c.want) {
								t.Fatalf("%s: #%d %s: %s: %s != %s", stage, e.Seq, item, c.what, c.got, c.want)
							}
						}
					}
				}
			}
			check("recorded")

			// Eager overrides win per side; the other side still reads the
			// source.
			e := all[n/2]
			for _, item := range items {
				before, after := states[e.Seq].Get(item), states[e.Seq+1].Get(item)
				e.SetStates(marker, nil)
				if got := e.OldValue(item); !got.Equal(marker.Get(item)) || !got.Equal(e.Old().Get(item)) {
					t.Fatalf("eager old, %s: OldValue %s", item, got)
				}
				if got := e.NewValue(item); !got.Equal(after) || !got.Equal(e.New().Get(item)) {
					t.Fatalf("eager old, %s: NewValue %s, want the source's %s", item, got, after)
				}
				e.SetStates(nil, marker)
				if got := e.OldValue(item); !got.Equal(before) || !got.Equal(e.Old().Get(item)) {
					t.Fatalf("eager new, %s: OldValue %s, want the source's %s", item, got, before)
				}
				if got := e.NewValue(item); !got.Equal(marker.Get(item)) || !got.Equal(e.New().Get(item)) {
					t.Fatalf("eager new, %s: NewValue %s", item, got)
				}
				e.SetStates(nil, nil)
				// No source at all: an event that never joined a trace.
				stub := &event.Event{Desc: e.Desc}
				if !stub.OldValue(item).IsNull() || !stub.NewValue(item).IsNull() {
					t.Fatalf("sourceless event answered %s / %s for %s", stub.OldValue(item), stub.NewValue(item), item)
				}
				stub.SetStates(marker, nil)
				if got := stub.OldValue(item); !got.Equal(marker.Get(item)) || !stub.NewValue(item).IsNull() {
					t.Fatalf("sourceless eager old, %s: %s / %s", item, got, stub.NewValue(item))
				}
			}

			// Fold the first half.  Retained events now read items whose last
			// write is below BaseSeq from the base; folded events inside the
			// hold band answer from the eager states the fold left them.
			st := tr.CompactBefore(at(n/2), 20*time.Second)
			if st.PrunedEvents == 0 || tr.BaseSeq() == 0 {
				t.Fatalf("nothing folded: %+v", st)
			}
			check("compacted")
			held := 0
			for _, e := range all[:tr.BaseSeq()] {
				if !e.HasEagerStates() {
					continue
				}
				held++
				for _, item := range items {
					if got, want := e.OldValue(item), states[e.Seq].Get(item); !got.Equal(want) {
						t.Fatalf("held #%d %s: OldValue %s != %s", e.Seq, item, got, want)
					}
					if got, want := e.NewValue(item), states[e.Seq+1].Get(item); !got.Equal(want) {
						t.Fatalf("held #%d %s: NewValue %s != %s", e.Seq, item, got, want)
					}
				}
			}
			if held != 20 {
				t.Fatalf("hold band kept states on %d folded events, want 20", held)
			}
		})
	}
}

// checkWorkload records the propagation script (about 1 200 events over six
// keys) in a trace whose interpretation also holds `items` items no rule
// ever mentions: the shape of a real deployment, where a rule reads two or
// three items out of thousands.
func checkWorkload(t testing.TB, items int) (*Trace, []rule.Rule) {
	initial, script := propagationScript(6, 32)
	for i := 0; i < items; i++ {
		initial.Set(data.Item("Filler", data.NewInt(int64(i))), data.NewInt(int64(i)))
	}
	return record(initial, script, 1), propagationRules(t)
}

// TestCheckCostIsFlatInItemCount pins what the point read bought: a checker
// pass allocates per event what its rules read, not what the store holds.
// When every condition materialised an interpretation the 2 048-item figure
// was 58 times the 32-item one.
func TestCheckCostIsFlatInItemCount(t *testing.T) {
	bytesPerEvent := func(items int) float64 {
		tr, rules := checkWorkload(t, items)
		ck := NewChecker(rules)
		if vs := ck.Check(tr); len(vs) != 0 {
			t.Fatalf("items=%d: workload trace is not valid: %v", items, vs)
		}
		const passes = 3
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < passes; i++ {
			ck.Check(tr)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(passes*tr.Len())
	}
	small, large := bytesPerEvent(32), bytesPerEvent(2048)
	t.Logf("checker allocation per event: %.0f B at 32 items, %.0f B at 2048 items", small, large)
	if large > 1.5*small {
		t.Fatalf("checker allocation grows with item count: %.0f B per event at 2048 items, %.0f B at 32", large, small)
	}
}
