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

var oracleItems = []data.ItemName{data.Item("X"), data.Item("Y"), data.Item("Z"), data.Item("emp.42")}

// buildRandom appends a pseudo-random event sequence — writes, deletes,
// notifications, write requests across several items — to a fresh trace
// and returns it with its initial interpretation.
func buildRandom(seed int64, n int) (*Trace, data.Interpretation) {
	initial := data.Interpretation{"X": data.NewInt(1)}
	tr := New(initial)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		item := oracleItems[rng.Intn(len(oracleItems))]
		var d event.Desc
		switch rng.Intn(5) {
		case 0:
			d = event.Ws(item, data.NullValue, data.NewInt(int64(rng.Intn(10))))
		case 1:
			d = event.W(item, data.NewInt(int64(rng.Intn(10))))
		case 2:
			d = event.Ws(item, data.NullValue, data.NullValue) // delete
		case 3:
			d = event.N(item, data.NewInt(int64(rng.Intn(10))))
		default:
			d = event.WR(item, data.NewInt(int64(rng.Intn(10))))
		}
		tr.Append(&event.Event{Time: at(i), Site: "A", Desc: d})
	}
	return tr, initial
}

// naiveStates is the reference store the versioned one is checked
// against: it clones the whole interpretation at every event, which is
// Appendix A.2's definition of old and new read literally.  states[i] is
// the interpretation before event i, states[i+1] the one after it.
func naiveStates(initial data.Interpretation, events []*event.Event) []data.Interpretation {
	states := []data.Interpretation{initial.Clone()}
	for _, e := range events {
		cur := states[len(states)-1]
		if e.Desc.Op.IsWrite() {
			cur = cur.With(e.Desc.Item, e.Desc.Val)
		}
		states = append(states, cur)
	}
	return states
}

// TestVersionedMatchesCloning drives the versioned store and the
// clone-per-event oracle through the same execution and demands identical
// answers from every read API: the lazy Old/New views, StateAt, Timeline
// and Final.
func TestVersionedMatchesCloning(t *testing.T) {
	const n = 200
	v, initial := buildRandom(1996, n)
	ve := v.Events()
	if len(ve) != n {
		t.Fatalf("length %d", len(ve))
	}
	states := naiveStates(initial, ve)
	for i := range ve {
		if !ve[i].Old().Equal(states[i]) {
			t.Fatalf("event %d: Old %s (versioned) != %s (oracle)", i, ve[i].Old(), states[i])
		}
		if !ve[i].New().Equal(states[i+1]) {
			t.Fatalf("event %d: New %s (versioned) != %s (oracle)", i, ve[i].New(), states[i+1])
		}
	}
	// Event i happens at at(i), so the state in force at at(s) is the one
	// after event s, clamped to the ends of the execution.
	for s := -1; s <= n; s += 7 {
		want := states[min(max(s+1, 0), n)]
		if got := v.StateAt(at(s)); !got.Equal(want) {
			t.Fatalf("StateAt(%d): %s != %s", s, got, want)
		}
	}
	for _, item := range append([]data.ItemName{data.Item("untouched")}, oracleItems...) {
		want := []Sample{{V: initial.Get(item)}}
		for i, e := range ve {
			if !e.Desc.Op.IsWrite() || e.Desc.Item.Key() != item.Key() {
				continue
			}
			if val := states[i+1].Get(item); !val.Equal(want[len(want)-1].V) {
				want = append(want, Sample{Seq: e.Seq, V: val})
			}
		}
		got := v.Timeline(item)
		if len(got) != len(want) {
			t.Fatalf("Timeline(%s): %d samples != %d", item, len(got), len(want))
		}
		for i := range got {
			if !got[i].V.Equal(want[i].V) || got[i].Seq != want[i].Seq {
				t.Fatalf("Timeline(%s)[%d]: %+v != %+v", item, i, got[i], want[i])
			}
		}
	}
	if !v.Final().Equal(states[n]) {
		t.Fatalf("Final: %s != %s", v.Final(), states[n])
	}
}

// TestCurrentStateMatchesCloning holds Final and Checkpoint, which overlay
// the base with each timeline's last write, to the oracle's last state:
// after a random execution, after a fold of half of it, after a restore
// into a fresh trace, and after writes appended to the restored one.
func TestCurrentStateMatchesCloning(t *testing.T) {
	tr, initial := buildRandom(7, 300)
	states := naiveStates(initial, tr.Events())
	check := func(stage string, tr *Trace, want data.Interpretation) {
		t.Helper()
		if got := tr.Final(); !got.Equal(want) {
			t.Fatalf("%s: Final %s != %s", stage, got, want)
		}
		base := tr.Checkpoint().Base
		if len(base) != len(want) {
			t.Fatalf("%s: Checkpoint().Base %v != %s", stage, base, want)
		}
		for k, v := range want {
			if base[k] != v.String() {
				t.Fatalf("%s: Checkpoint().Base %v != %s", stage, base, want)
			}
		}
	}
	want := states[len(states)-1]
	check("recorded", tr, want)
	if st := tr.CompactBefore(at(150), 0); st.PrunedEvents != 150 {
		t.Fatalf("CompactBefore pruned %d events, want 150", st.PrunedEvents)
	}
	check("compacted", tr, want)
	r := New(data.Interpretation{"W": data.NewInt(5)})
	if err := r.Restore(tr.Checkpoint()); err != nil {
		t.Fatal(err)
	}
	check("restored", r, want.With(data.Item("W"), data.NewInt(5)))
	tail := []*event.Event{
		{Time: at(300), Site: "A", Desc: event.Ws(data.Item("X"), data.NullValue, data.NullValue)},
		{Time: at(301), Site: "A", Desc: event.W(data.Item("W"), data.NewInt(6))},
		{Time: at(302), Site: "A", Desc: event.N(data.Item("Y"), data.NewInt(7))},
	}
	for _, e := range tail {
		r.Append(e)
	}
	after := naiveStates(want.With(data.Item("W"), data.NewInt(5)), tail)
	check("appended after restore", r, after[len(after)-1])
}

// TestVersionedCheckerEquivalence runs the Appendix A.2 checker over a
// valid execution and over the same one with an event's states corrupted:
// the lazy views must give the checker exactly what the oracle's eager
// states give it, and the corruption must be caught.
func TestVersionedCheckerEquivalence(t *testing.T) {
	v, initial := buildRandom(42, 150)
	ck := NewChecker(nil)
	lazy := ck.Check(v)
	// Pin every event to the oracle's states: the verdict must not move.
	states := naiveStates(initial, v.Events())
	for i, e := range v.Events() {
		e.SetStates(states[i], states[i+1])
	}
	if eager := ck.Check(v); fmt.Sprint(eager) != fmt.Sprint(lazy) {
		t.Fatalf("valid trace: lazy views %v, oracle states %v", lazy, eager)
	}
	// Corrupt one event: eager states override the source.
	e := v.Events()[10]
	e.SetStates(e.Old(), e.New().With(data.Item("ghost"), data.NewInt(99)))
	if vv := ck.Check(v); len(vv) <= len(lazy) {
		t.Fatalf("corruption undetected: %v", vv)
	}
}

// TestEventsSnapshotIsStable verifies the zero-copy Events snapshot:
// appending to the returned slice must not clobber events recorded after
// the snapshot was taken (the capacity cap forces a reallocation).
func TestEventsSnapshotIsStable(t *testing.T) {
	tr := New(nil)
	spontaneousWrite(tr, at(0), "A", itemX, data.NewInt(1))
	snap := tr.Events()
	later := spontaneousWrite(tr, at(1), "A", itemY, data.NewInt(2))
	bogus := &event.Event{Time: at(9), Site: "Z", Desc: event.N(itemX, data.NewInt(0))}
	_ = append(snap, bogus)
	if got := tr.Events()[1]; got != later {
		t.Fatalf("append through snapshot clobbered the trace: got %v", got)
	}
}

// TestTraceConcurrentAccess hammers one trace from concurrent appenders
// and readers — the shape multiple shells sharing a trace produce.  Run
// under -race this validates the versioned store's locking.
func TestTraceConcurrentAccess(t *testing.T) {
	tr := New(data.Interpretation{"X": data.NewInt(0)})
	const writers, perWriter = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			item := data.Item(fmt.Sprintf("it%d", w))
			for i := 0; i < perWriter; i++ {
				e := tr.Append(&event.Event{Time: at(i), Site: "A", Desc: event.Ws(item, data.NullValue, data.NewInt(int64(i)))})
				_ = e.New() // exercise the lazy view concurrently with appends
			}
		}(w)
	}
	ck := NewChecker(nil)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				_ = tr.StateAt(at(i))
				_ = tr.Timeline(data.Item("it0"))
				_ = tr.Final()
				_ = ck.checkProvenance(tr.Events())
			}
		}()
	}
	wg.Wait()
	if tr.Len() != writers*perWriter {
		t.Fatalf("Len = %d", tr.Len())
	}
	// The full checker needs a time-ordered trace; here we only assert the
	// per-writer timelines survived the contention intact.
	for w := 0; w < writers; w++ {
		// Every write is a fresh value, so each lands as one sample after
		// the null initial value.
		if got := len(tr.Timeline(data.Item(fmt.Sprintf("it%d", w)))); got != perWriter+1 {
			t.Fatalf("writer %d recorded %d samples, want %d", w, got, perWriter+1)
		}
	}
	_ = tr.String()
	var zero time.Time
	if tr.End().Equal(zero) {
		t.Fatal("End is zero on a non-empty trace")
	}
}
