package transport

import (
	"strconv"
	"sync"
	"testing"
	"time"

	"cmtk/internal/durable"
	"cmtk/internal/obs"
	"cmtk/internal/vclock"
)

// durPair is a journaled sender A talking to a plain reliable receiver B
// over a partitionable fabric, with enough handles to crash and restart
// A's process in miniature.
type durPair struct {
	clk   *vclock.Virtual
	flaky *Flaky
	dir   string

	store *durable.Store
	a     *ReliableEndpoint

	mu  sync.Mutex
	got []Message
}

func newDurPair(t *testing.T, dir string) *durPair {
	t.Helper()
	clk := vclock.NewVirtual(vclock.Epoch)
	p := &durPair{clk: clk, dir: dir}
	bus := NewBus(clk, 10*time.Millisecond)
	p.flaky = NewFlaky(bus, FlakyOptions{Clock: clk, Metrics: obs.NewRegistry()})
	relB := NewReliable(p.flaky, ReliableOptions{
		Clock: clk, RetryInterval: 100 * time.Millisecond, Metrics: obs.NewRegistry(),
	})
	if _, err := relB.Join("B", func(m Message) {
		p.mu.Lock()
		p.got = append(p.got, m)
		p.mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	p.startA(t)
	return p
}

// startA boots (or reboots) A's incarnation: a fresh store over the same
// state directory, a fresh endpoint, journal recovery, then a bind to the
// fabric.
func (p *durPair) startA(t *testing.T) int {
	t.Helper()
	st, err := durable.Open(p.dir, durable.Options{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	p.store = st
	p.a = NewReliableEndpoint(nil, ReliableOptions{
		Clock: p.clk, RetryInterval: 100 * time.Millisecond, Metrics: obs.NewRegistry(),
	})
	replayed, err := p.a.EnableJournal(st, "rel-A")
	if err != nil {
		t.Fatal(err)
	}
	inner, err := p.flaky.Join("A", p.a.Deliver)
	if err != nil {
		t.Fatal(err)
	}
	p.a.Bind(inner)
	return replayed
}

// crashA kills A's incarnation: journaling dies first (nothing after the
// crash instant persists), then the endpoint drops off the fabric.
func (p *durPair) crashA(t *testing.T) {
	t.Helper()
	p.store.Crash()
	if err := p.a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.store.Close(); err != nil {
		t.Fatal(err)
	}
}

func (p *durPair) seen() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]int, len(p.got))
	for i, m := range p.got {
		out[i], _ = strconv.Atoi(m.Payload["k"])
	}
	return out
}

func wantSeen(t *testing.T, p *durPair, n int) {
	t.Helper()
	got := p.seen()
	if len(got) != n {
		t.Fatalf("B saw %v, want exactly 0..%d in order", got, n-1)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("B saw %v: out of order / duplicated at %d", got, i)
		}
	}
}

// TestJournalReplaysOutboxAcrossRestart is the crash that matters: A
// buffers fires it cannot deliver (B partitioned away), dies, and its
// next incarnation replays them from the journal in order — the Section 5
// "remember messages that need to be sent out upon recovery" condition.
func TestJournalReplaysOutboxAcrossRestart(t *testing.T) {
	p := newDurPair(t, t.TempDir())
	// Deliver two messages normally so the stream has history.
	for i := 0; i < 2; i++ {
		if err := p.a.Send("B", fireMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	p.clk.Advance(time.Second)
	wantSeen(t, p, 2)

	// Partition, buffer three more, crash.
	p.flaky.PartitionBoth("A", "B")
	for i := 2; i < 5; i++ {
		if err := p.a.Send("B", fireMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	p.clk.Advance(time.Second)
	if got := p.seen(); len(got) != 2 {
		t.Fatalf("partition leaked: B saw %v", got)
	}
	p.crashA(t)

	replayed := p.startA(t)
	if replayed != 3 {
		t.Fatalf("recovery replayed %d messages, want the 3 unacked", replayed)
	}
	p.flaky.HealAll()
	p.clk.Advance(10 * time.Second)
	wantSeen(t, p, 5)

	// The resumed numbering keeps working for new traffic.
	if err := p.a.Send("B", fireMsg(5)); err != nil {
		t.Fatal(err)
	}
	p.clk.Advance(time.Second)
	wantSeen(t, p, 6)
}

// TestJournalExactlyOnceWhenAckLost: A crashes after B processed the
// messages but before the acks landed.  The restarted A retransmits from
// the journal; B's dedup (same epoch, same numbering) discards every copy
// — exactly-once effect across the crash, not just at-least-once.
func TestJournalExactlyOnceWhenAckLost(t *testing.T) {
	p := newDurPair(t, t.TempDir())
	for i := 0; i < 2; i++ {
		if err := p.a.Send("B", fireMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	p.clk.Advance(time.Second)
	wantSeen(t, p, 2)

	// One-way partition: B receives and processes, its acks black-hole.
	p.flaky.Partition("B", "A")
	for i := 2; i < 4; i++ {
		if err := p.a.Send("B", fireMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	p.clk.Advance(time.Second)
	wantSeen(t, p, 4) // B processed them; A still holds them unacked
	if n := p.a.Pending("B"); n != 2 {
		t.Fatalf("A pending = %d, want 2 (acks were lost)", n)
	}
	p.crashA(t)

	if replayed := p.startA(t); replayed != 2 {
		t.Fatalf("recovery replayed %d, want 2", replayed)
	}
	p.flaky.HealAll()
	p.clk.Advance(10 * time.Second)
	wantSeen(t, p, 4) // retransmits were duplicates; B must not re-execute
	if n := p.a.Pending("B"); n != 0 {
		t.Fatalf("A pending = %d after heal, want 0", n)
	}
}

// TestJournalCheckpointCompacts: the journal self-compacts once it
// crosses the byte threshold, and a warm restart recovers from the
// snapshot with nothing to replay.
func TestJournalCheckpointCompacts(t *testing.T) {
	p := newDurPair(t, t.TempDir())
	ropts := p.a.opts
	if ropts.CheckpointBytes != 256<<10 {
		t.Fatalf("default CheckpointBytes = %d", ropts.CheckpointBytes)
	}
	for i := 0; i < 200; i++ {
		if err := p.a.Send("B", fireMsg(i)); err != nil {
			t.Fatal(err)
		}
		p.clk.Advance(50 * time.Millisecond)
	}
	p.clk.Advance(time.Second)
	wantSeen(t, p, 200)
	if err := p.a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.store.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := durable.ReadLog(p.dir, "rel-A")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot == nil || !rec.Clean {
		t.Fatalf("want clean checkpointed journal, got snapshot=%v clean=%v", rec.Snapshot != nil, rec.Clean)
	}
	sum, err := SummarizeJournal(rec)
	if err != nil {
		t.Fatal(err)
	}
	b := sum.Out["B"]
	if b.Pending != 0 || b.NextSeq != 200 {
		t.Fatalf("journal summary = %+v, want empty outbox at seq 200", b)
	}
	if sum.Epoch == 0 {
		t.Fatal("journal lost the incarnation epoch")
	}
}

// TestJournalSummaryCountsFires exercises the read-only inspection path
// cmctl uses against a dirty (crashed) state directory.
func TestJournalSummaryCountsFires(t *testing.T) {
	p := newDurPair(t, t.TempDir())
	p.flaky.PartitionBoth("A", "B")
	for i := 0; i < 3; i++ {
		if err := p.a.Send("B", fireMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.a.Send("B", Message{Kind: "failure", FailSite: "A"}); err != nil {
		t.Fatal(err)
	}
	p.crashA(t)

	rec, err := durable.ReadLog(p.dir, "rel-A")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Clean {
		t.Fatal("crashed dir reported clean")
	}
	sum, err := SummarizeJournal(rec)
	if err != nil {
		t.Fatal(err)
	}
	b := sum.Out["B"]
	if b.Pending != 4 || b.Fires != 3 {
		t.Fatalf("summary = %+v, want 4 pending of which 3 fires", b)
	}
}

func TestJournalDoubleEnableRejected(t *testing.T) {
	st, err := durable.Open(t.TempDir(), durable.Options{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	a := NewReliableEndpoint(nil, ReliableOptions{Metrics: obs.NewRegistry()})
	if _, err := a.EnableJournal(st, "rel-A"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.EnableJournal(st, "rel-A"); err == nil {
		t.Fatal("second EnableJournal accepted")
	}
}
