package trace

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/event"
)

// TestShardedMatchesSerialTrace drives the same single-threaded event
// stream into a 1-shard and an 8-shard trace and asserts every read API
// observes the same execution: sharding is a storage layout, not a
// semantic change.
func TestShardedMatchesSerialTrace(t *testing.T) {
	initial := data.NewInterpretation()
	for i := 0; i < 8; i++ {
		initial.Set(data.Item(fmt.Sprintf("X%d", i)), data.NewInt(0))
	}
	serial := New(initial)
	sharded := NewSharded(initial, 8)
	if got := sharded.Shards(); got != 8 {
		t.Fatalf("Shards() = %d, want 8", got)
	}

	epoch := time.Unix(0, 0)
	feed := func(tr *Trace) {
		for e := 0; e < 200; e++ {
			base := fmt.Sprintf("X%d", e%8)
			tr.Append(&event.Event{
				Time: epoch.Add(time.Duration(e) * time.Millisecond),
				Site: "S",
				Desc: event.Desc{Op: event.OpWs, Item: data.Item(base), Val: data.NewInt(int64(e))},
			})
		}
	}
	feed(serial)
	feed(sharded)

	if serial.Len() != sharded.Len() {
		t.Fatalf("Len: serial %d, sharded %d", serial.Len(), sharded.Len())
	}
	se, pe := serial.Events(), sharded.Events()
	for i := range se {
		if se[i].Seq != pe[i].Seq || se[i].String() != pe[i].String() {
			t.Fatalf("event %d differs:\n  serial  %s\n  sharded %s", i, se[i], pe[i])
		}
	}
	for i := 0; i < 8; i++ {
		item := data.Item(fmt.Sprintf("X%d", i))
		st, sh := serial.Timeline(item), sharded.Timeline(item)
		if len(st) != len(sh) {
			t.Fatalf("timeline %s: serial %d samples, sharded %d", item, len(st), len(sh))
		}
		for j := range st {
			if st[j].Seq != sh[j].Seq || !st[j].V.Equal(sh[j].V) {
				t.Fatalf("timeline %s sample %d differs", item, j)
			}
		}
		if len(serial.Writes(item)) != len(sharded.Writes(item)) {
			t.Fatalf("writes %s differ", item)
		}
	}
	if s, p := fmt.Sprint(serial.Final()), fmt.Sprint(sharded.Final()); s != p {
		t.Fatalf("Final differs:\n  serial  %s\n  sharded %s", s, p)
	}
	for _, seq := range []uint64{0, 7, 99, 199} {
		se, pe := serial.Find(seq), sharded.Find(seq)
		if se == nil || pe == nil || se.String() != pe.String() {
			t.Fatalf("Find(%d) differs", seq)
		}
		if s, p := fmt.Sprint(serial.StateAfter(seq)), fmt.Sprint(sharded.StateAfter(seq)); s != p {
			t.Fatalf("StateAfter(%d) differs", seq)
		}
	}
	if !serial.End().Equal(sharded.End()) {
		t.Fatalf("End differs: %v vs %v", serial.End(), sharded.End())
	}
}

// TestAppendUnitAtomicity commits units concurrently and asserts each
// unit's events hold one contiguous block of sequence numbers, a single
// timestamp, and that the post-commit hooks ran in seq order — the three
// invariants of the one commit point that concurrent shells share.
func TestAppendUnitAtomicity(t *testing.T) {
	tr := NewSharded(nil, 4)
	clk := time.Unix(0, 0)
	var clkMu sync.Mutex
	now := func() time.Time {
		clkMu.Lock()
		defer clkMu.Unlock()
		clk = clk.Add(time.Microsecond)
		return clk
	}

	const units, perUnit = 64, 5
	var orderMu sync.Mutex
	var commitOrder [][]*event.Event
	var wg sync.WaitGroup
	for u := 0; u < units; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			evs := make([]*event.Event, perUnit)
			for i := range evs {
				base := fmt.Sprintf("B%d", (u+i)%7)
				evs[i] = &event.Event{
					Site: "S",
					Desc: event.Desc{Op: event.OpW, Item: data.Item(base), Val: data.NewInt(int64(u*perUnit + i))},
				}
			}
			tr.AppendUnit(evs, now, func() {
				orderMu.Lock()
				commitOrder = append(commitOrder, evs)
				orderMu.Unlock()
			})
		}(u)
	}
	wg.Wait()

	if got := tr.Len(); got != units*perUnit {
		t.Fatalf("Len = %d, want %d", got, units*perUnit)
	}
	var prevLast uint64
	for i, evs := range commitOrder {
		for j, e := range evs {
			if j > 0 && e.Seq != evs[j-1].Seq+1 {
				t.Fatalf("unit %d: non-contiguous seqs %d then %d", i, evs[j-1].Seq, e.Seq)
			}
			if !e.Time.Equal(evs[0].Time) {
				t.Fatalf("unit %d: events stamped with different times", i)
			}
		}
		if i > 0 && evs[0].Seq != prevLast+1 {
			t.Fatalf("commit order does not match seq order: unit %d starts at %d after %d",
				i, evs[0].Seq, prevLast)
		}
		prevLast = evs[perUnit-1].Seq
	}
	// Times must be non-decreasing in seq order (checker property 1).
	all := tr.Events()
	for i := 1; i < len(all); i++ {
		if all[i].Time.Before(all[i-1].Time) {
			t.Fatalf("time regressed at seq %d", all[i].Seq)
		}
	}
}

// TestShardedConcurrentAppend hammers Append from many goroutines; run
// under -race this is the memory-safety check for the lock striping.
func TestShardedConcurrentAppend(t *testing.T) {
	tr := NewSharded(nil, 8)
	var wg sync.WaitGroup
	const gs, per = 16, 250
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := fmt.Sprintf("X%d", g%5)
			for i := 0; i < per; i++ {
				tr.Append(&event.Event{
					Site: "S",
					Desc: event.Desc{Op: event.OpW, Item: data.Item(base), Val: data.NewInt(int64(g*per + i))},
				})
			}
		}(g)
	}
	wg.Wait()
	if got := tr.Len(); got != gs*per {
		t.Fatalf("Len = %d, want %d", got, gs*per)
	}
	evs := tr.Events()
	for i := range evs {
		if evs[i].Seq != uint64(i) {
			t.Fatalf("Events not seq-ordered at %d: seq %d", i, evs[i].Seq)
		}
	}
}
