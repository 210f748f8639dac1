package trace

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/event"
)

// writeN appends n spontaneous writes round-robin over the given items,
// one second apart starting at second start, and returns the appended
// events.
func writeN(tr *Trace, items []data.ItemName, start, n int) []*event.Event {
	out := make([]*event.Event, 0, n)
	for i := 0; i < n; i++ {
		item := items[i%len(items)]
		out = append(out, spontaneousWrite(tr, at(start+i), "A", item, data.NewInt(int64(i))))
	}
	return out
}

func compactItems(n int) []data.ItemName {
	out := make([]data.ItemName, n)
	for i := range out {
		out[i] = data.Item(fmt.Sprintf("C%d", i))
	}
	return out
}

// TestCompactPreservesRetainedViews folds a prefix away and checks that
// every read API answers identically to an uncompacted control for the
// retained suffix.  The single case has one writer appending in order.
func TestCompactPreservesRetainedViews(t *testing.T) {
	t.Run("single", testCompactPreservesRetainedViews)
}

func testCompactPreservesRetainedViews(t *testing.T) {
	mk := func() *Trace { return New(data.Interpretation{"Init": data.NewInt(7)}) }
	items := compactItems(5)
	tr, ctl := mk(), mk()
	writeN(tr, items, 1, 200)
	writeN(ctl, items, 1, 200)

	stats := tr.CompactBefore(at(100), 10*time.Second)
	if stats.PrunedEvents == 0 || stats.PrunedBytes == 0 {
		t.Fatalf("nothing pruned: %+v", stats)
	}
	if got, want := stats.PrunedEvents+stats.Retained, 200; got != want {
		t.Fatalf("pruned %d + retained %d != %d", stats.PrunedEvents, stats.Retained, want)
	}
	if tr.Len() != stats.Retained {
		t.Fatalf("Len %d != retained %d", tr.Len(), stats.Retained)
	}
	if pe, _ := tr.Pruned(); tr.TotalEvents() != 200 || pe != uint64(stats.PrunedEvents) {
		t.Fatalf("TotalEvents %d, pruned %d", tr.TotalEvents(), pe)
	}
	if tr.BaseSeq() != stats.CutSeq || tr.BaseSeq() == 0 {
		t.Fatalf("BaseSeq %d, cut %d", tr.BaseSeq(), stats.CutSeq)
	}
	if tr.BaseTime().IsZero() || !tr.BaseTime().Before(at(100)) {
		t.Fatalf("BaseTime %v", tr.BaseTime())
	}

	// Every pruned event carried Time < horizon and every retained
	// one a seq at or after the cut.
	for _, e := range tr.Events() {
		if e.Seq < stats.CutSeq {
			t.Fatalf("retained event below cut: %v", e)
		}
	}
	if !tr.Final().Equal(ctl.Final()) {
		t.Fatalf("Final diverged: %s vs %s", tr.Final(), ctl.Final())
	}
	// Initial() is now the folded base: control's state just before
	// the cut.
	if want := ctl.StateBefore(stats.CutSeq); !tr.Initial().Equal(want) {
		t.Fatalf("Initial %s, want folded %s", tr.Initial(), want)
	}
	// Retained-suffix views agree with the control everywhere at or
	// after the cut.
	for seq := stats.CutSeq; seq < 200; seq++ {
		if !tr.StateBefore(seq).Equal(ctl.StateBefore(seq)) {
			t.Fatalf("StateBefore(%d) diverged", seq)
		}
		if !tr.StateAfter(seq).Equal(ctl.StateAfter(seq)) {
			t.Fatalf("StateAfter(%d) diverged", seq)
		}
	}
	// Timelines: retained samples identical; the head sample holds
	// the folded value.
	for _, item := range items {
		got, want := tr.Timeline(item), ctl.Timeline(item)
		if len(got) == 0 || len(want) < len(got) {
			t.Fatalf("timeline %s: %d vs %d samples", item, len(got), len(want))
		}
		tail := want[len(want)-(len(got)-1):]
		for i, s := range got[1:] {
			if s.Seq != tail[i].Seq || !s.V.Equal(tail[i].V) {
				t.Fatalf("timeline %s sample %d diverged", item, i)
			}
		}
	}
	// Appending after a fold keeps working, and a second fold makes
	// progress from the new history.
	writeN(tr, items, 300, 50)
	writeN(ctl, items, 300, 50)
	if !tr.Final().Equal(ctl.Final()) {
		t.Fatal("Final diverged after post-fold appends")
	}
	again := tr.CompactBefore(at(320), 5*time.Second)
	if again.PrunedEvents == 0 {
		t.Fatalf("second fold pruned nothing: %+v", again)
	}
	if !tr.Final().Equal(ctl.Final()) {
		t.Fatal("Final diverged after second fold")
	}
}

// TestCompactNoopBelowBase re-folding at or before the current base
// does nothing.
func TestCompactNoopBelowBase(t *testing.T) {
	tr := New(nil)
	items := compactItems(3)
	writeN(tr, items, 1, 50)
	first := tr.CompactBefore(at(40), 0)
	if first.PrunedEvents == 0 {
		t.Fatalf("first fold pruned nothing")
	}
	second := tr.CompactBefore(at(10), 0)
	if second.PrunedEvents != 0 || second.CutSeq != first.CutSeq {
		t.Fatalf("re-fold moved the cut: %+v vs %+v", second, first)
	}
	if tr.Len() != first.Retained {
		t.Fatalf("no-op fold changed retention: %d vs %d", tr.Len(), first.Retained)
	}
}

// TestCompactMaterializesHeldTriggers a retained effect whose trigger
// falls inside the fold must still answer provenance queries: the fold
// materializes eager views on hold-band events and severs their own
// trigger chains.
func TestCompactMaterializesHeldTriggers(t *testing.T) {
	tr := New(nil)
	old := spontaneousWrite(tr, at(1), "A", itemX, data.NewInt(1))
	trig := generated(tr, at(50), "A", event.W(itemX, data.NewInt(2)), "r0", old)
	eff := generated(tr, at(52), "B", event.W(itemY, data.NewInt(2)), "r1", trig)

	stats := tr.CompactBefore(at(51), 5*time.Second)
	if stats.PrunedEvents != 2 {
		t.Fatalf("pruned %d, want 2", stats.PrunedEvents)
	}
	if !trig.HasEagerStates() {
		t.Fatal("hold-band trigger was not materialized")
	}
	if got := eff.Trigger.New().Get(itemX); !got.Equal(data.NewInt(2)) {
		t.Fatalf("trigger New view = %s", got)
	}
	if got := eff.Trigger.Old().Get(itemX); !got.Equal(data.NewInt(1)) {
		t.Fatalf("trigger Old view = %s", got)
	}
	if trig.Trigger != nil {
		t.Fatal("folded trigger still pins its own trigger chain")
	}
}

// TestCompactConcurrentAppends folds repeatedly while writers append,
// then checks the union of folded base and retained events equals the
// control (run under -race in CI).
func TestCompactConcurrentAppends(t *testing.T) {
	tr := New(nil)
	items := compactItems(8)
	var compactor, writersWG sync.WaitGroup
	stop := make(chan struct{})
	compactor.Add(1)
	go func() {
		defer compactor.Done()
		rng := rand.New(rand.NewSource(1))
		for {
			select {
			case <-stop:
				return
			default:
			}
			tr.CompactBefore(at(rng.Intn(400)), 2*time.Second)
		}
	}()
	const writers, per = 4, 200
	writersWG.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < per; i++ {
				spontaneousWrite(tr, at(i), "A", items[(w+i)%len(items)], data.NewInt(int64(w*per+i)))
			}
		}(w)
	}
	writersWG.Wait()
	close(stop)
	compactor.Wait()
	if got := tr.TotalEvents(); got != writers*per {
		t.Fatalf("TotalEvents %d, want %d", got, writers*per)
	}
	if tr.Len()+int(func() uint64 { n, _ := tr.Pruned(); return n }()) != writers*per {
		t.Fatal("retained + pruned != appended")
	}
}

// TestCheckpointRestoreRoundTrip a restored trace resumes sequence
// numbering past the checkpoint and reports the checkpointed state as
// its base.
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	tr := New(data.Interpretation{"Init": data.NewInt(7)})
	items := compactItems(4)
	writeN(tr, items, 1, 120)
	tr.CompactBefore(at(100), 0)
	cs := tr.Checkpoint()
	if cs.NextSeq != 120 || cs.PrunedEvents != 120 {
		t.Fatalf("checkpoint %+v", cs)
	}
	if cs.BaseTime.IsZero() {
		t.Fatal("checkpoint BaseTime unset")
	}

	fresh := New(nil)
	if err := fresh.Restore(cs); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if !fresh.Initial().Equal(tr.Final()) || !fresh.Final().Equal(tr.Final()) {
		t.Fatalf("restored base %s, want %s", fresh.Initial(), tr.Final())
	}
	if fresh.BaseSeq() != 120 || fresh.TotalEvents() != 120 {
		t.Fatalf("restored accounting: base %d total %d", fresh.BaseSeq(), fresh.TotalEvents())
	}
	e := spontaneousWrite(fresh, at(200), "A", items[0], data.NewInt(999))
	if e.Seq != 120 {
		t.Fatalf("post-restore seq %d, want 120", e.Seq)
	}
	if !fresh.Final().Get(items[0]).Equal(data.NewInt(999)) {
		t.Fatal("post-restore append lost")
	}

	// Restoring into a non-empty trace must fail.
	if err := fresh.Restore(cs); err == nil {
		t.Fatal("Restore into non-empty trace succeeded")
	}
}

// BaseTime returns the timestamp of the last folded event, or the zero
// time when nothing has been folded.
func (t *Trace) BaseTime() time.Time {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.baseTimeLocked()
}
