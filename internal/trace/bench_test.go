package trace

import (
	"fmt"
	"testing"

	"cmtk/internal/data"
	"cmtk/internal/event"
)

// BenchmarkTraceAppend measures the per-event cost of recording a write
// as the interpretation grows: the versioned store appends in O(1)
// regardless of item count.
func BenchmarkTraceAppend(b *testing.B) {
	for _, items := range []int{16, 512} {
		initial := data.NewInterpretation()
		names := make([]data.ItemName, items)
		for i := 0; i < items; i++ {
			names[i] = data.Item(fmt.Sprintf("X%d", i))
			initial.Set(names[i], data.NewInt(0))
		}
		b.Run(fmt.Sprintf("items=%d", items), func(b *testing.B) {
			tr := New(initial)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Append(&event.Event{
					Time: at(i), Site: "A",
					Desc: event.W(names[i%items], data.NewInt(int64(i))),
				})
			}
		})
	}
}

// BenchmarkTraceCompact measures the amortized cost of folding: a
// steady-state loop appends a batch of writes and then folds everything
// older than a fixed window, so each event is appended once and pruned
// once.  Reported per event, it is the overhead bounded-memory
// operation adds to the recording hot path.
func BenchmarkTraceCompact(b *testing.B) {
	tr := New(nil)
	names := make([]data.ItemName, 32)
	for i := range names {
		names[i] = data.Item(fmt.Sprintf("X%d", i))
	}
	const batch = 1024
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Append(&event.Event{
			Time: at(i), Site: "A",
			Desc: event.W(names[i%len(names)], data.NewInt(int64(i))),
		})
		if i%batch == batch-1 {
			tr.CompactBefore(at(i-batch/2), 0)
		}
	}
	b.StopTimer()
	if pe, _ := tr.Pruned(); b.N > 2*batch && pe == 0 {
		b.Fatal("compaction never pruned")
	}
}

// BenchmarkCheck measures one Appendix A.2 pass over the same 1 200-event
// execution as the store around it grows: conditions are point reads, so
// the pass costs what the rules read, not what the store holds.
func BenchmarkCheck(b *testing.B) {
	for _, items := range []int{256, 8192} {
		b.Run(fmt.Sprintf("items=%d", items), func(b *testing.B) {
			tr, rules := checkWorkload(b, items)
			ck := NewChecker(rules)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if vs := ck.Check(tr); len(vs) != 0 {
					b.Fatalf("violations: %v", vs)
				}
			}
		})
	}
}
