package trace

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/event"
)

// TestShardedMatchesSerialTrace records the same event stream once by
// direct appends and once from eight writer goroutines, the way a
// fleet's shards share one trace, and asserts every read API observes
// the same execution: how many writers commit is not a semantic change.
func TestShardedMatchesSerialTrace(t *testing.T) {
	initial := data.NewInterpretation()
	for i := 0; i < 8; i++ {
		initial.Set(data.Item(fmt.Sprintf("X%d", i)), data.NewInt(0))
	}
	epoch := time.Unix(0, 0)
	script := func() []*event.Event {
		out := make([]*event.Event, 200)
		for e := range out {
			base := fmt.Sprintf("X%d", e%8)
			out[e] = &event.Event{
				Time: epoch.Add(time.Duration(e) * time.Millisecond),
				Site: "S",
				Desc: event.Desc{Op: event.OpWs, Item: data.Item(base), Val: data.NewInt(int64(e))},
			}
		}
		return out
	}
	serial := record(initial, script(), 1)
	sharded := record(initial, script(), 8)

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

// TestShardedConcurrentAppend hammers Append from many goroutines, as a
// fleet's shards do; run under -race this is the memory-safety check for
// the trace's one commit point.
func TestShardedConcurrentAppend(t *testing.T) {
	tr := New(nil)
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

// TestAppendUnitAtomicity commits units concurrently and asserts each
// unit's events hold one contiguous block of sequence numbers, a single
// timestamp, and that the post-commit hooks ran in seq order — the three
// invariants of the one commit point that concurrent shells share.
func TestAppendUnitAtomicity(t *testing.T) {
	tr := New(nil)
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

// TestEventSnapshotsAreSeqPrefixes races Append and AppendUnit writers
// against a reader that snapshots Events() in a loop: every snapshot must
// be a gap-free seq prefix of the execution (event i has Seq BaseSeq()+i)
// that Find answers from — on a fresh trace, after a fold, and after a
// restore.  Run under -race -cpu 2,8 in CI.
func TestEventSnapshotsAreSeqPrefixes(t *testing.T) {
	const writers, per = 4, 150
	// phase runs one round of concurrent writers, every event stamped at,
	// while the reader checks each snapshot against base.
	phase := func(t *testing.T, tr *Trace, at time.Time) {
		t.Helper()
		base := tr.BaseSeq()
		gapFree := func(evs []*event.Event) error {
			for i, e := range evs {
				if e.Seq != base+uint64(i) {
					return fmt.Errorf("snapshot of %d: event %d has seq %d, want %d", len(evs), i, e.Seq, base+uint64(i))
				}
			}
			if n := len(evs); n > 0 && tr.Find(evs[n-1].Seq) != evs[n-1] {
				return fmt.Errorf("Find(%d) does not return the snapshot's last event", evs[n-1].Seq)
			}
			return nil
		}
		done := make(chan struct{})
		readerErr := make(chan error, 1)
		go func() {
			defer close(readerErr)
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := gapFree(tr.Events()); err != nil {
					readerErr <- err
					return
				}
			}
		}()
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				item := data.Item(fmt.Sprintf("P%d", w))
				write := func(i int) *event.Event {
					return &event.Event{Time: at, Site: "S", Desc: event.W(item, data.NewInt(int64(i)))}
				}
				for i := 0; i < per; {
					if w%2 == 0 {
						tr.Append(write(i))
						i++
						continue
					}
					unit := []*event.Event{write(i)}
					for len(unit) < 1+i%3 && i+len(unit) < per {
						unit = append(unit, write(i+len(unit)))
					}
					tr.AppendUnit(unit, nil, nil)
					i += len(unit)
				}
			}(w)
		}
		wg.Wait()
		close(done)
		if err := <-readerErr; err != nil {
			t.Fatal(err)
		}
		if err := gapFree(tr.Events()); err != nil {
			t.Fatal(err)
		}
	}

	tr := New(nil)
	phase(t, tr, at(0))
	phase(t, tr, at(1))
	if st := tr.CompactBefore(at(1), 0); st.PrunedEvents != writers*per || tr.BaseSeq() != writers*per {
		t.Fatalf("fold of the first round: %+v, BaseSeq %d", st, tr.BaseSeq())
	}
	phase(t, tr, at(2))

	restored := New(nil)
	if err := restored.Restore(tr.Checkpoint()); err != nil {
		t.Fatal(err)
	}
	if restored.BaseSeq() != 3*writers*per {
		t.Fatalf("restored BaseSeq %d, want %d", restored.BaseSeq(), 3*writers*per)
	}
	phase(t, restored, at(3))
	if got, want := restored.TotalEvents(), uint64(4*writers*per); got != want {
		t.Fatalf("restored TotalEvents %d, want %d", got, want)
	}
}
