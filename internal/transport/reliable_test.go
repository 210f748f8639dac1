package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"cmtk/internal/obs"
	"cmtk/internal/vclock"
)

// relPair joins two shells A and B to a network and records B's inbound
// messages in order.
type relPair struct {
	a    Endpoint
	got  *[]Message
	mu   *sync.Mutex
	evMu sync.Mutex
	evs  []LinkEvent
}

func joinPair(t *testing.T, n Network) *relPair {
	t.Helper()
	var mu sync.Mutex
	var got []Message
	p := &relPair{got: &got, mu: &mu}
	if _, err := n.Join("B", func(m Message) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	a, err := n.Join("A", func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	p.a = a
	if re, ok := a.(*ReliableEndpoint); ok {
		re.OnLinkEvent(func(ev LinkEvent) {
			p.evMu.Lock()
			p.evs = append(p.evs, ev)
			p.evMu.Unlock()
		})
	}
	return p
}

func (p *relPair) seqs() []uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]uint64, len(*p.got))
	for i, m := range *p.got {
		out[i] = m.Trigger.Seq
	}
	return out
}

func (p *relPair) events(kind LinkEventKind) []LinkEvent {
	p.evMu.Lock()
	defer p.evMu.Unlock()
	var out []LinkEvent
	for _, ev := range p.evs {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

func wantInOrder(t *testing.T, seqs []uint64, n int) {
	t.Helper()
	if len(seqs) != n {
		t.Fatalf("delivered %d messages, want %d: %v", len(seqs), n, seqs)
	}
	for i, s := range seqs {
		if s != uint64(i) {
			t.Fatalf("out of order at %d: %v", i, seqs)
		}
	}
}

func fireMsg(i int) Message {
	return Message{Kind: "fire", Rule: "r", Trigger: EventRef{Seq: uint64(i)},
		Payload: map[string]string{"k": fmt.Sprint(i)}}
}

func TestReliableBasicDelivery(t *testing.T) {
	clk := vclock.NewVirtual(vclock.Epoch)
	rel := NewReliable(NewBus(clk, 10*time.Millisecond),
		ReliableOptions{Clock: clk, RetryInterval: time.Second})
	p := joinPair(t, rel)
	for i := 0; i < 5; i++ {
		if err := p.a.Send("B", fireMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(time.Second)
	wantInOrder(t, p.seqs(), 5)
	// The link stamp is stripped before delivery, user payload kept.
	p.mu.Lock()
	for i, m := range *p.got {
		if m.Link != (LinkStamp{}) {
			t.Fatalf("link stamp leaked to receiver: %+v", m.Link)
		}
		if m.Payload["k"] != fmt.Sprint(i) {
			t.Fatalf("payload lost: %v", m.Payload)
		}
	}
	p.mu.Unlock()
	// Acks flowed back and retired the outbox.
	if n := p.a.(*ReliableEndpoint).Pending("B"); n != 0 {
		t.Fatalf("outbox still holds %d after acks", n)
	}
	if evs := p.events(LinkRetry); len(evs) != 0 {
		t.Fatalf("unexpected retries on a clean link: %v", evs)
	}
}

func TestReliableRetransmitsThroughDrops(t *testing.T) {
	clk := vclock.NewVirtual(vclock.Epoch)
	flaky := NewFlaky(NewBus(clk, 10*time.Millisecond),
		FlakyOptions{Clock: clk, Seed: 7, Drop: 0.4})
	rel := NewReliable(flaky, ReliableOptions{Clock: clk, RetryInterval: 100 * time.Millisecond, Seed: 7})
	p := joinPair(t, rel)
	const n = 40
	for i := 0; i < n; i++ {
		if err := p.a.Send("B", fireMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(time.Minute)
	wantInOrder(t, p.seqs(), n)
	if n := p.a.(*ReliableEndpoint).Pending("B"); n != 0 {
		t.Fatalf("outbox still holds %d", n)
	}
	// The drop pattern and backoff jitter are both seeded and the clock is
	// virtual, so the retransmission schedule is bit-reproducible.  A round
	// resends at most retryWindow (32) messages, so the 40 no longer fit in
	// one: the run takes exactly 5 timed rounds (32, 32, 28, 2, 2 messages)
	// plus 2 windows that advancing acks released (2 and 4 messages), each
	// a LinkRetry event, and those 102 resends recover every dropped copy.
	rounds, acked, resent := 0, 0, 0
	for _, ev := range p.events(LinkRetry) {
		if ev.Attempts > 0 {
			rounds++
		} else {
			acked++
		}
		resent += ev.Messages
	}
	if rounds != 5 || acked != 2 || resent != 102 {
		t.Fatalf("retry rounds = %d, ack-released windows = %d, resent = %d; want exactly 5, 2, 102",
			rounds, acked, resent)
	}
}

// TestReliableRetriesBoundedWhenAcksTrail is the virtual-clock twin of
// TestReliableCountersRace: 8 senders × 100 messages, split over both
// directions, with a 1 ms retry interval and acks that take longer than
// that to come back.  At 5 ms latency, rounds run at about 1, 3 and
// 7 ms before the first ack arrives at 10 ms.  Resending the whole
// outbox every round made 3 × 800 = 2 400 retries.  Bounded rounds
// resend 32 each, and the acks arriving at 10 ms release the rest of
// the round's window once: per direction 3 × 32 + 368 = 464, 928 in
// all, below one resend per message plus the rounds.
func TestReliableRetriesBoundedWhenAcksTrail(t *testing.T) {
	for _, tc := range []struct {
		latency time.Duration
		retries float64
	}{{5 * time.Millisecond, 928}, {20 * time.Millisecond, 1056}} {
		clk := vclock.NewVirtual(vclock.Epoch)
		reg := obs.NewRegistry()
		rel := NewReliable(NewBus(clk, tc.latency), ReliableOptions{
			Clock: clk, RetryInterval: time.Millisecond, Metrics: reg,
		})
		var recvA, recvB int
		epA, err := rel.Join("A", func(Message) { recvA++ })
		if err != nil {
			t.Fatal(err)
		}
		epB, err := rel.Join("B", func(Message) { recvB++ })
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < 8; w++ {
			from, to := epA, "B"
			if w%2 == 1 {
				from, to = epB, "A"
			}
			for i := 0; i < 100; i++ {
				if err := from.Send(to, Message{Kind: "fire", Rule: fmt.Sprint(i)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		clk.Advance(time.Second)
		snap := reg.Snapshot()
		if recvA != 400 || recvB != 400 || snap.Sum("cmtk_transport_acked_total") != 800 {
			t.Fatalf("latency %v: delivered A=%d B=%d, acked %g; want 400, 400, 800",
				tc.latency, recvA, recvB, snap.Sum("cmtk_transport_acked_total"))
		}
		if got := snap.Sum("cmtk_transport_retries_total"); got != tc.retries || got >= 2*800 {
			t.Fatalf("latency %v: retries = %g, want exactly %g (< 2 × 800)", tc.latency, got, tc.retries)
		}
		epA.Close()
		epB.Close()
	}
}

// TestReliablePartitionDrainIsWindowed queues 1 000 messages across a
// partition and pins what the heal costs.  During the outage each round
// resends one window; after the heal the backlog drains about a window
// per 20 ms round trip, each message resent once.  Resending the whole
// outbox every round made 14 000 retries here and drained in 318 ms;
// the bound trades drain time for retries.
func TestReliablePartitionDrainIsWindowed(t *testing.T) {
	clk := vclock.NewVirtual(vclock.Epoch)
	reg := obs.NewRegistry()
	flaky := NewFlaky(NewBus(clk, 10*time.Millisecond), FlakyOptions{Clock: clk})
	rel := NewReliable(flaky, ReliableOptions{
		Clock: clk, RetryInterval: 100 * time.Millisecond,
		MaxBackoff: 400 * time.Millisecond, Metrics: reg,
	})
	p := joinPair(t, rel)
	var drained time.Time
	p.a.(*ReliableEndpoint).OnLinkEvent(func(ev LinkEvent) {
		if ev.Kind == LinkRecovered {
			drained = clk.Now()
		}
	})
	flaky.PartitionBoth("A", "B")
	const n = 1000
	for i := 0; i < n; i++ {
		if err := p.a.Send("B", fireMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(5 * time.Second)
	flaky.HealAll()
	healed := clk.Now()
	clk.Advance(time.Minute)
	wantInOrder(t, p.seqs(), n)
	recov := p.events(LinkRecovered)
	if len(recov) != 1 || recov[0].Messages != n || recov[0].Fires != n {
		t.Fatalf("recovered events = %+v, want one for %d messages / %d fires", recov, n, n)
	}
	// 13 rounds of 32 during the outage, then each of the 1 000 once.  The
	// drain waits up to one 400 ms backoff for the first round after the
	// heal, then takes 32 round trips of 20 ms.
	retries := reg.Snapshot()[`cmtk_transport_retries_total{peer="B"}`]
	if drain := drained.Sub(healed); retries != 1416 || drain != 1016440435*time.Nanosecond {
		t.Fatalf("retries = %v, drain after heal = %v; want exactly 1416 and 1.016440435s", retries, drain)
	}
}

func TestReliableDedupsDuplicates(t *testing.T) {
	clk := vclock.NewVirtual(vclock.Epoch)
	flaky := NewFlaky(NewBus(clk, 10*time.Millisecond),
		FlakyOptions{Clock: clk, Seed: 3, Duplicate: 1.0})
	rel := NewReliable(flaky, ReliableOptions{Clock: clk, RetryInterval: 100 * time.Millisecond})
	p := joinPair(t, rel)
	const n = 20
	for i := 0; i < n; i++ {
		p.a.Send("B", fireMsg(i))
	}
	clk.Advance(10 * time.Second)
	// Every copy crossed the link twice; the receiver saw each effect once.
	wantInOrder(t, p.seqs(), n)
}

func TestReliableReordersDelayedCopies(t *testing.T) {
	clk := vclock.NewVirtual(vclock.Epoch)
	// Half the messages take an extra 200ms — far more than the 10ms base
	// latency — so raw arrival order is scrambled; the reorder buffer must
	// restore send order.
	flaky := NewFlaky(NewBus(clk, 10*time.Millisecond),
		FlakyOptions{Clock: clk, Seed: 11, Delay: 0.5, DelayBy: 200 * time.Millisecond})
	rel := NewReliable(flaky, ReliableOptions{Clock: clk, RetryInterval: 5 * time.Second})
	p := joinPair(t, rel)
	const n = 30
	for i := 0; i < n; i++ {
		p.a.Send("B", fireMsg(i))
	}
	clk.Advance(time.Minute)
	wantInOrder(t, p.seqs(), n)
}

func TestReliablePartitionHealOrderedReplay(t *testing.T) {
	clk := vclock.NewVirtual(vclock.Epoch)
	flaky := NewFlaky(NewBus(clk, 10*time.Millisecond), FlakyOptions{Clock: clk})
	rel := NewReliable(flaky, ReliableOptions{
		Clock: clk, RetryInterval: 100 * time.Millisecond,
		MaxBackoff: 400 * time.Millisecond, FailThreshold: 2,
	})
	p := joinPair(t, rel)
	p.a.Send("B", fireMsg(0))
	clk.Advance(time.Second)
	wantInOrder(t, p.seqs(), 1)

	flaky.PartitionBoth("A", "B")
	for i := 1; i < 6; i++ {
		p.a.Send("B", fireMsg(i))
	}
	clk.Advance(5 * time.Second)
	wantInOrder(t, p.seqs(), 1) // nothing crossed the partition
	if evs := p.events(LinkDegraded); len(evs) != 1 {
		t.Fatalf("degraded events = %v", evs)
	} else if ev := evs[0]; ev.Peer != "B" || ev.Messages != 5 || ev.Fires != 5 {
		// All five partitioned sends are rule firings and all were queued
		// by the time the fail threshold tripped.
		t.Fatalf("degraded event = %+v, want 5 messages / 5 fires for B", ev)
	}
	re := p.a.(*ReliableEndpoint)
	if n := re.Pending("B"); n != 5 {
		t.Fatalf("outbox holds %d during outage, want 5", n)
	}

	flaky.HealAll()
	clk.Advance(5 * time.Second)
	wantInOrder(t, p.seqs(), 6) // replayed in order, no duplicates
	if n := re.Pending("B"); n != 0 {
		t.Fatalf("outbox holds %d after heal", n)
	}
	// Fires accumulates over the whole replay, as Messages does, not just
	// over the last ack's messages.
	recov := p.events(LinkRecovered)
	if len(recov) != 1 || recov[0].Messages != 5 || recov[0].Fires != 5 {
		t.Fatalf("recovered events = %+v, want one for 5 messages / 5 fires", recov)
	}
}

func TestReliableOutboxOverflow(t *testing.T) {
	clk := vclock.NewVirtual(vclock.Epoch)
	flaky := NewFlaky(NewBus(clk, 10*time.Millisecond), FlakyOptions{Clock: clk})
	rel := NewReliable(flaky, ReliableOptions{
		Clock: clk, RetryInterval: 100 * time.Millisecond, OutboxLimit: 3,
	})
	p := joinPair(t, rel)
	flaky.PartitionBoth("A", "B")
	for i := 0; i < 5; i++ {
		if err := p.a.Send("B", fireMsg(i)); err != nil {
			t.Fatal(err) // overflow surfaces as an event, not an error
		}
	}
	if evs := p.events(LinkOverflow); len(evs) != 2 {
		t.Fatalf("overflow events = %v", evs)
	}
	// The three buffered messages still replay after heal.
	flaky.HealAll()
	clk.Advance(5 * time.Second)
	wantInOrder(t, p.seqs(), 3)
}

// TestReliablePartitionNeverGivesUp: a reliable link has no retry
// budget.  Across a ten-minute two-way partition it degrades once, keeps
// every message buffered and keeps retrying on its seeded backoff
// schedule; after the heal the backlog replays in order, exactly once.
func TestReliablePartitionNeverGivesUp(t *testing.T) {
	clk := vclock.NewVirtual(vclock.Epoch)
	reg := obs.NewRegistry()
	flaky := NewFlaky(NewBus(clk, 10*time.Millisecond), FlakyOptions{Clock: clk, Metrics: reg})
	rel := NewReliable(flaky, ReliableOptions{
		Clock: clk, RetryInterval: 100 * time.Millisecond,
		MaxBackoff: time.Second, Seed: 5, Metrics: reg,
	})
	p := joinPair(t, rel)
	flaky.PartitionBoth("A", "B")
	for i := 0; i < 3; i++ {
		if err := p.a.Send("B", fireMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(10 * time.Minute)
	if evs := p.events(LinkDegraded); len(evs) != 1 || evs[0].Messages != 3 || evs[0].Fires != 3 {
		t.Fatalf("degraded events = %v, want exactly one for 3 messages / 3 fires", evs)
	}
	if evs := append(p.events(LinkGaveUp), p.events(LinkOverflow)...); len(evs) != 0 {
		t.Fatalf("loss events during a partition = %v, want none", evs)
	}
	re := p.a.(*ReliableEndpoint)
	if n := re.Pending("B"); n != 3 {
		t.Fatalf("outbox holds %d during outage, want 3", n)
	}
	// Backoff 100ms, 200ms, 400ms, 800ms, then 1s per round, each plus up
	// to 10% jitter drawn from the link's seeded stream: the virtual clock
	// makes the round count over ten minutes exact, and every round resends
	// all three messages.
	const rounds = 574
	if evs := p.events(LinkRetry); len(evs) != rounds {
		t.Fatalf("retry rounds = %d, want exactly %d", len(evs), rounds)
	}
	if got := reg.Snapshot()[`cmtk_transport_retries_total{peer="B"}`]; got != 3*rounds {
		t.Fatalf("retries = %v, want exactly %d", got, 3*rounds)
	}
	if n := len(p.seqs()); n != 0 {
		t.Fatalf("%d messages crossed the partition", n)
	}

	flaky.HealAll()
	clk.Advance(5 * time.Second)
	wantInOrder(t, p.seqs(), 3)
	if n := re.Pending("B"); n != 0 {
		t.Fatalf("outbox holds %d after heal", n)
	}
	if recov := p.events(LinkRecovered); len(recov) != 1 || recov[0].Messages != 3 || recov[0].Fires != 3 {
		t.Fatalf("recovered events = %+v, want exactly one for 3 messages / 3 fires", recov)
	}
	if evs := append(p.events(LinkGaveUp), p.events(LinkOverflow)...); len(evs) != 0 {
		t.Fatalf("loss events after heal = %v, want none", evs)
	}
}

func TestReliablePassThroughForUnsequencedPeers(t *testing.T) {
	// A shell without the reliability layer can still talk to one with it.
	clk := vclock.NewVirtual(vclock.Epoch)
	bus := NewBus(clk, 10*time.Millisecond)
	var mu sync.Mutex
	var got []Message
	re := NewReliableEndpoint(func(m Message) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	}, ReliableOptions{Clock: clk})
	inner, err := bus.Join("B", re.Deliver)
	if err != nil {
		t.Fatal(err)
	}
	re.Bind(inner)
	rawA, err := bus.Join("A", func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	rawA.Send("B", Message{Kind: "fire", Rule: "raw"})
	clk.Advance(time.Second)
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0].Rule != "raw" {
		t.Fatalf("got = %v", got)
	}
}

func TestFlakyPartitionWithoutReliabilityLosesMessages(t *testing.T) {
	clk := vclock.NewVirtual(vclock.Epoch)
	flaky := NewFlaky(NewBus(clk, 10*time.Millisecond), FlakyOptions{Clock: clk})
	p := joinPair(t, flaky)
	flaky.Partition("A", "B")
	// The outage is silent: sends succeed, nothing arrives — even after heal.
	if err := p.a.Send("B", fireMsg(0)); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	flaky.Heal("A", "B")
	clk.Advance(time.Second)
	if n := len(p.seqs()); n != 0 {
		t.Fatalf("raw link delivered %d messages across a partition", n)
	}
	p.a.Send("B", fireMsg(1))
	clk.Advance(time.Second)
	if seqs := p.seqs(); len(seqs) != 1 || seqs[0] != 1 {
		t.Fatalf("after heal got %v", seqs)
	}
}

// TestReliableTCPCrashRecovery crashes the receiving TCP endpoint
// mid-stream and rebinds a fresh one into the same ReliableEndpoint: the
// sender's outbox replays across the outage and the receiver's dedup
// state guarantees exactly-once effect, in order.
func TestReliableTCPCrashRecovery(t *testing.T) {
	var mu sync.Mutex
	var got []Message
	relB := NewReliableEndpoint(func(m Message) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	}, ReliableOptions{RetryInterval: 20 * time.Millisecond})
	defer relB.Close()
	tcpB, err := NewTCP("B", "127.0.0.1:0", nil, relB.Deliver)
	if err != nil {
		t.Fatal(err)
	}
	bAddr := tcpB.Addr()

	relA := NewReliableEndpoint(func(Message) {}, ReliableOptions{RetryInterval: 20 * time.Millisecond})
	defer relA.Close()
	tcpA, err := NewTCP("A", "127.0.0.1:0", map[string]string{"B": bAddr}, relA.Deliver)
	if err != nil {
		t.Fatal(err)
	}
	relA.Bind(tcpA)
	relB.Bind(tcpB)
	// B needs A's address for acks.
	tcpB.addrs = map[string]string{"A": tcpA.Addr()}

	waitFor := func(n int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			mu.Lock()
			have := len(got)
			mu.Unlock()
			if have >= n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("only %d of %d messages arrived", have, n)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	for i := 0; i < 5; i++ {
		if err := relA.Send("B", fireMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(5)

	// Crash B's transport mid-stream; the reliable state survives.
	tcpB.Close()
	for i := 5; i < 10; i++ {
		if err := relA.Send("B", fireMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond) // let retries fail against the dead port

	// B restarts on the same address with the same reliable endpoint.
	tcpB2, err := NewTCP("B", bAddr, map[string]string{"A": tcpA.Addr()}, relB.Deliver)
	if err != nil {
		t.Fatal(err)
	}
	defer tcpB2.Close()
	relB.Bind(tcpB2)

	waitFor(10)
	// Exactly once, in order — retransmitted copies were deduplicated.
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 10 {
		t.Fatalf("delivered %d messages, want exactly 10", len(got))
	}
	for i, m := range got {
		if m.Trigger.Seq != uint64(i) {
			t.Fatalf("out of order at %d: %v", i, got)
		}
	}
	// The sender's outbox drains once acks resume.
	deadline := time.Now().Add(5 * time.Second)
	mu.Unlock()
	for relA.Pending("B") != 0 {
		if time.Now().After(deadline) {
			mu.Lock()
			t.Fatalf("outbox never drained: %d pending", relA.Pending("B"))
		}
		time.Sleep(2 * time.Millisecond)
	}
	mu.Lock()
}

// A receiver process restart loses the endpoint AND its reliability state
// (dedup, expected sequence).  The outbox base stamped on retransmits
// lets the fresh receiver fast-forward past the messages its predecessor
// acked and resume the stream mid-way instead of waiting forever.
func TestReliableReceiverProcessRestartResumesStream(t *testing.T) {
	clk := vclock.NewVirtual(vclock.Epoch)
	bus := NewBus(clk, 10*time.Millisecond)
	relB := NewReliableEndpoint(func(Message) {}, ReliableOptions{Clock: clk, RetryInterval: time.Second})
	epB, err := bus.Join("B", relB.Deliver)
	if err != nil {
		t.Fatal(err)
	}
	relB.Bind(epB)
	relA := NewReliableEndpoint(func(Message) {}, ReliableOptions{Clock: clk, RetryInterval: time.Second})
	epA, err := bus.Join("A", relA.Deliver)
	if err != nil {
		t.Fatal(err)
	}
	relA.Bind(epA)

	// Three messages delivered and acked to B's first incarnation.
	for i := 0; i < 3; i++ {
		if err := relA.Send("B", fireMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(time.Second)
	if n := relA.Pending("B"); n != 0 {
		t.Fatalf("pending before crash = %d", n)
	}

	// B's process dies: endpoint, dedup state and expected seq all gone.
	epB.Close()
	for i := 3; i < 5; i++ {
		if err := relA.Send("B", fireMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(3 * time.Second) // retries fail into the void

	// B restarts from scratch with empty link state.
	var mu sync.Mutex
	var got []Message
	relB2 := NewReliableEndpoint(func(m Message) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	}, ReliableOptions{Clock: clk, RetryInterval: time.Second})
	epB2, err := bus.Join("B", relB2.Deliver)
	if err != nil {
		t.Fatal(err)
	}
	relB2.Bind(epB2)
	clk.Advance(time.Minute)

	mu.Lock()
	seqs := make([]uint64, len(got))
	for i, m := range got {
		seqs[i] = m.Trigger.Seq
	}
	mu.Unlock()
	if len(seqs) != 2 || seqs[0] != 3 || seqs[1] != 4 {
		t.Fatalf("restarted receiver got %v, want the two outage messages [3 4]", seqs)
	}
	if n := relA.Pending("B"); n != 0 {
		t.Fatalf("outbox never drained after receiver restart: %d pending", n)
	}
}

// A sender process restart begins a fresh stream numbered from zero.  The
// incarnation epoch stamped on data messages makes the receiver reset its
// link state and accept the new numbering instead of discarding the whole
// stream as duplicates of the old one.
func TestReliableSenderProcessRestartResetsReceiver(t *testing.T) {
	clk := vclock.NewVirtual(vclock.Epoch)
	bus := NewBus(clk, 10*time.Millisecond)
	var mu sync.Mutex
	var got []Message
	relB := NewReliableEndpoint(func(m Message) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	}, ReliableOptions{Clock: clk, RetryInterval: time.Second})
	epB, err := bus.Join("B", relB.Deliver)
	if err != nil {
		t.Fatal(err)
	}
	relB.Bind(epB)

	relA := NewReliableEndpoint(func(Message) {}, ReliableOptions{Clock: clk, RetryInterval: time.Second})
	epA, err := bus.Join("A", relA.Deliver)
	if err != nil {
		t.Fatal(err)
	}
	relA.Bind(epA)
	for i := 0; i < 3; i++ {
		if err := relA.Send("B", fireMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(time.Second)

	// A dies and restarts strictly later: a higher incarnation epoch.
	epA.Close()
	clk.Advance(time.Second)
	relA2 := NewReliableEndpoint(func(Message) {}, ReliableOptions{Clock: clk, RetryInterval: time.Second})
	epA2, err := bus.Join("A", relA2.Deliver)
	if err != nil {
		t.Fatal(err)
	}
	relA2.Bind(epA2)
	for i := 0; i < 2; i++ {
		if err := relA2.Send("B", fireMsg(10+i)); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(time.Minute)

	mu.Lock()
	seqs := make([]uint64, len(got))
	for i, m := range got {
		seqs[i] = m.Trigger.Seq
	}
	mu.Unlock()
	want := []uint64{0, 1, 2, 10, 11}
	if len(seqs) != len(want) {
		t.Fatalf("delivered %v, want %v", seqs, want)
	}
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("delivered %v, want %v", seqs, want)
		}
	}
	if n := relA2.Pending("B"); n != 0 {
		t.Fatalf("restarted sender outbox never drained: %d pending", n)
	}
}
