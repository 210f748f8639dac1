package transport

import (
	"net"
	"strconv"
	"sync"
	"testing"
	"time"

	"cmtk/internal/obs"
	"cmtk/internal/vclock"
	"cmtk/internal/wire"
)

// stallListener accepts connections and reads forever without replying,
// so a TCP endpoint's flusher parks mid-round-trip and its outbox fills.
func stallListener(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 4096)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
				}
			}(c)
		}
	}()
	return ln.Addr().String()
}

// TestTCPStalledPeerQueuesWithoutLoss parks the flusher against a
// stalled peer and checks that the send-side queue has no cap of its own:
// every message sent while the first round-trip hangs is queued, none is
// dropped, and no link event fires.
func TestTCPStalledPeerQueuesWithoutLoss(t *testing.T) {
	addr := stallListener(t)
	ep, err := NewTCP("A", "127.0.0.1:0", map[string]string{"B": addr},
		func(Message) {}, wire.WithRequestTimeout(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	var evMu sync.Mutex
	var evs []LinkEvent
	ep.OnLinkEvent(func(ev LinkEvent) {
		evMu.Lock()
		evs = append(evs, ev)
		evMu.Unlock()
	})
	if err := ep.Send("B", Message{Kind: "fire", Rule: "r0"}); err != nil {
		t.Fatal(err)
	}
	// Wait until the flusher has taken the first message as its in-flight
	// batch, so the outbox is empty and the count below is exact.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ep.outMu.Lock()
		empty := len(ep.outbox["B"].pending) == 0
		ep.outMu.Unlock()
		if empty {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("flusher never took the first batch")
		}
		time.Sleep(time.Millisecond)
	}
	const queued = 49
	for i := 1; i <= queued; i++ {
		if err := ep.Send("B", Message{Kind: "fire", Rule: "r" + strconv.Itoa(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ep.outMu.Lock()
	pending := ep.outbox["B"].pending
	depth := len(pending)
	var order []string
	for _, m := range pending {
		order = append(order, m.Rule)
	}
	ep.outMu.Unlock()
	if depth != queued {
		t.Fatalf("pending = %d, want exactly %d", depth, queued)
	}
	for i, r := range order {
		if want := "r" + strconv.Itoa(i+1); r != want {
			t.Fatalf("pending[%d] = %s, want %s (FIFO broken)", i, r, want)
		}
	}
	evMu.Lock()
	defer evMu.Unlock()
	if len(evs) != 0 {
		t.Fatalf("link events = %+v, want none", evs)
	}
}

// ackSink is a minimal bound endpoint recording what the reliability
// layer sends back (acks) without any network.
type ackSink struct {
	mu   sync.Mutex
	sent []Message
}

func (a *ackSink) Send(to string, m Message) error {
	a.mu.Lock()
	a.sent = append(a.sent, m)
	a.mu.Unlock()
	return nil
}
func (a *ackSink) Close() error { return nil }

// TestReorderHoldEvictionExactCounts delivers a gapped burst straight to
// a receiver whose reorder buffer caps at 4: exactly 4 arrivals are held,
// 5 are evicted (counted, deterministic — the arriving copy is the one
// discarded), and filling the gap releases exactly held+1 messages in
// order.
func TestReorderHoldEvictionExactCounts(t *testing.T) {
	reg := obs.NewRegistry()
	clk := vclock.NewVirtual(vclock.Epoch)
	var mu sync.Mutex
	var got []Message
	re := NewReliableEndpoint(func(m Message) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	}, ReliableOptions{Clock: clk, OutboxLimit: 4, Metrics: reg, Name: "B"})
	re.Bind(&ackSink{})
	mk := func(seq int) Message {
		return Message{
			Kind: "fire", From: "A", Rule: "r" + strconv.Itoa(seq),
			Link: LinkStamp{Epoch: 7, Seq: uint64(seq)},
		}
	}
	// Seqs 1..9 arrive first: 0 is the gap.  1..4 are held, 5..9 evicted.
	for seq := 1; seq <= 9; seq++ {
		re.Deliver(mk(seq))
	}
	mu.Lock()
	early := len(got)
	mu.Unlock()
	if early != 0 {
		t.Fatalf("delivered %d messages before the gap filled, want 0", early)
	}
	snap := reg.Snapshot()
	if held := snap.Sum("cmtk_transport_reorder_held_total"); held != 4 {
		t.Fatalf("held = %v, want exactly 4", held)
	}
	if dropped := snap[`cmtk_transport_buffer_dropped_total{shell="B",buffer="reorder-hold"}`]; dropped != 5 {
		t.Fatalf("reorder-hold drop counter = %v, want exactly 5", dropped)
	}
	// The gap arrives: 0 plus held 1..4 release in order; evicted 5..9
	// stay lost until the sender's go-back-N pass (not simulated here).
	re.Deliver(mk(0))
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 5 {
		t.Fatalf("delivered %d after gap fill, want exactly 5", len(got))
	}
	for i, m := range got {
		if want := "r" + strconv.Itoa(i); m.Rule != want {
			t.Fatalf("delivery %d is %s, want %s (order broken)", i, m.Rule, want)
		}
	}
}
