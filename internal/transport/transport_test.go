package transport

import (
	"sync"
	"testing"
	"time"

	"cmtk/internal/obs"
	"cmtk/internal/vclock"
)

func TestBusDeliveryAndLatency(t *testing.T) {
	clk := vclock.NewVirtual(vclock.Epoch)
	bus := NewBus(clk, 2*time.Second)
	var got []Message
	var when []time.Time
	_, err := bus.Join("B", func(m Message) {
		got = append(got, m)
		when = append(when, clk.Now())
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := bus.Join("A", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send("B", Message{Kind: "fire", Rule: "r1"}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if len(got) != 0 {
		t.Fatal("delivered before latency elapsed")
	}
	clk.Advance(time.Second)
	if len(got) != 1 || got[0].Rule != "r1" || got[0].From != "A" || got[0].To != "B" {
		t.Fatalf("got = %v", got)
	}
	if !when[0].Equal(vclock.Epoch.Add(2 * time.Second)) {
		t.Fatalf("delivered at %v", when[0])
	}
}

func TestBusErrors(t *testing.T) {
	bus := NewBus(vclock.NewVirtual(vclock.Epoch), 0)
	a, _ := bus.Join("A", nil)
	if err := a.Send("nobody", Message{}); err == nil {
		t.Fatal("send to unknown shell succeeded")
	}
	if _, err := bus.Join("A", nil); err == nil {
		t.Fatal("duplicate join succeeded")
	}
	a.Close()
	if err := a.Send("A", Message{}); err == nil {
		t.Fatal("send on closed endpoint succeeded")
	}
	// Messages in flight to a closed endpoint are dropped, not delivered.
	clk := vclock.NewVirtual(vclock.Epoch)
	bus2 := NewBus(clk, time.Second)
	delivered := 0
	b, _ := bus2.Join("B", func(Message) { delivered++ })
	a2, _ := bus2.Join("A", nil)
	a2.Send("B", Message{})
	b.Close()
	clk.Advance(2 * time.Second)
	if delivered != 0 {
		t.Fatal("delivered to closed endpoint")
	}
}

func TestTCPMesh(t *testing.T) {
	var mu sync.Mutex
	var got []Message
	recvB := func(m Message) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	}
	net := NewTCPNetwork()
	b := joinTCP(t, net, "B", recvB)
	defer b.Close()
	a := joinTCP(t, net, "A", func(Message) {})
	defer a.Close()
	for i := 0; i < 10; i++ {
		m := Message{Kind: "fire", Rule: "r", Bindings: map[string]string{"n": "1"},
			Trigger: EventRef{Site: "A", Seq: uint64(i), Desc: "N(X, 1)"}}
		if err := a.Send("B", m); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d messages arrived", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, m := range got {
		if m.Trigger.Seq != uint64(i) {
			t.Fatalf("out of order: %v", got)
		}
		if m.From != "A" || m.To != "B" {
			t.Fatalf("routing fields: %+v", m)
		}
	}
}

// TestTCPBatchingFIFO bursts messages at a deliberately slow receiver so
// the flusher coalesces queued messages into multi-message frames, and
// checks that per-link FIFO order (Appendix A.2 property 7) survives the
// batching.
func TestTCPBatchingFIFO(t *testing.T) {
	const n = 200
	var mu sync.Mutex
	var got []Message
	recvB := func(m Message) {
		time.Sleep(100 * time.Microsecond) // stall so send outpaces delivery
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	}
	net := NewTCPNetwork()
	b := joinTCP(t, net, "B", recvB)
	defer b.Close()
	a := joinTCP(t, net, "A", func(Message) {})
	defer a.Close()
	before := batches(a)
	for i := 0; i < n; i++ {
		if err := a.Send("B", Message{Kind: "fire", Trigger: EventRef{Seq: uint64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		cnt := len(got)
		mu.Unlock()
		if cnt == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d messages arrived", cnt, n)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, m := range got {
		if m.Trigger.Seq != uint64(i) {
			t.Fatalf("FIFO violated at %d: seq %d", i, m.Trigger.Seq)
		}
	}
	frames := batches(a) - before
	if frames == 0 || frames >= n {
		t.Fatalf("expected coalescing: %d messages went out in %d frames", n, frames)
	}
	t.Logf("%d messages coalesced into %d frames", n, frames)
}

// batches is how many frames tc's batcher has shipped, read off the
// cmtk_transport_batch_size histogram's count.
func batches(tc *TCP) uint64 {
	return uint64(obs.Default.Snapshot()[`cmtk_transport_batch_size_count{shell="`+tc.shellID+`"}`])
}

// waitSent polls until tc has no queued frame and no running flusher:
// every message sent so far was written or reported lost.
func waitSent(t *testing.T, tc *TCP) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		tc.outMu.Lock()
		busy := false
		for _, o := range tc.outbox {
			busy = busy || o.running || len(o.pending) > 0
		}
		tc.outMu.Unlock()
		if !busy {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the outbox never drained")
		}
	}
}

func TestTCPSendErrors(t *testing.T) {
	a := joinTCP(t, NewTCPNetworkAt("127.0.0.1:0", map[string]string{"B": "127.0.0.1:1"}), "A", func(Message) {})
	defer a.Close()
	var mu sync.Mutex
	var events []LinkEvent
	a.OnLinkEvent(func(ev LinkEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	if err := a.Send("unknown", Message{}); err == nil {
		t.Fatal("send to unrouted shell succeeded")
	}
	// A dead address is a delivery failure, not a routing failure: Send
	// enqueues and the flusher reports the lost frame as a link event.
	if err := a.Send("B", Message{Kind: "fire"}); err != nil {
		t.Fatalf("send to dead address should enqueue: %v", err)
	}
	waitSent(t, a)
	mu.Lock()
	if len(events) != 1 || events[0].Kind != LinkGaveUp || events[0].Peer != "B" ||
		events[0].Messages != 1 || events[0].Fires != 1 || events[0].Err == nil {
		t.Fatalf("expected one LinkGaveUp for B, got %+v", events)
	}
	mu.Unlock()
	a.Close()
	if err := a.Send("B", Message{}); err == nil {
		t.Fatal("send after close succeeded")
	}
}

// joinTCP joins shellID to n and returns its raw endpoint.
func joinTCP(t *testing.T, n *TCPNetwork, shellID string, recv func(Message)) *TCP {
	t.Helper()
	ep, err := n.Join(shellID, recv)
	if err != nil {
		t.Fatal(err)
	}
	return ep.(*TCP)
}

func TestTCPNetwork(t *testing.T) {
	net := NewTCPNetwork()
	var mu sync.Mutex
	var got []Message
	epB, err := net.Join("B", func(m Message) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer epB.Close()
	epA, err := net.Join("A", func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer epA.Close()
	// Duplicate joins are rejected.
	if _, err := net.Join("A", func(Message) {}); err == nil {
		t.Fatal("duplicate join succeeded")
	}
	if err := epA.Send("B", Message{Kind: "fire", Rule: "r"}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("message never arrived")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Unknown destination fails.
	if err := epA.Send("nobody", Message{}); err == nil {
		t.Fatal("send to unjoined shell succeeded")
	}
}

// TestTCPNetworkStaticPeers: a network built for one process of a
// deployment reaches the other processes' shells at their static
// addresses, and a joining shell the static table also names (a fleet
// member listing every member) replaces its entry with where it listens.
func TestTCPNetworkStaticPeers(t *testing.T) {
	got := make(chan Message, 1)
	b := joinTCP(t, NewTCPNetwork(), "B", func(m Message) { got <- m })
	defer b.Close()
	n := NewTCPNetworkAt("127.0.0.1:0", map[string]string{"A": "127.0.0.1:1", "B": b.Addr()})
	a := joinTCP(t, n, "A", func(Message) {})
	defer a.Close()
	if addr, _ := n.Addr("A"); addr != a.Addr() {
		t.Fatalf("A registered at %s, want its listen address %s", addr, a.Addr())
	}
	if err := a.Send("B", Message{Kind: "fire", Rule: "r"}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.From != "A" || m.Rule != "r" {
			t.Fatalf("B got %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message to the static peer never arrived")
	}
	if _, err := n.Join("A", func(Message) {}); err == nil {
		t.Fatal("duplicate join succeeded")
	}
}

// TestTCPSerialDeliveryAcrossReconnect blocks B's callback on A's first
// message, then cuts A's connection so that A's next send redials.  The
// old connection's reader is still inside the callback when the frame on
// the new connection arrives; that frame must wait for the callback to
// return and then arrive in order, as Network.Join's serial delivery
// promises.
func TestTCPSerialDeliveryAcrossReconnect(t *testing.T) {
	entered, unblock := make(chan struct{}), make(chan struct{})
	release := sync.OnceFunc(func() { close(unblock) })
	overlap := make(chan string, 1)
	all := make(chan struct{})
	var mu sync.Mutex
	var got []string
	inside := 0
	recvB := func(m Message) {
		mu.Lock()
		if inside++; inside > 1 {
			select {
			case overlap <- m.Rule:
			default:
			}
		}
		mu.Unlock()
		if m.Rule == "first" {
			close(entered)
			<-unblock
		}
		mu.Lock()
		inside--
		if got = append(got, m.Rule); len(got) == 2 {
			close(all)
		}
		mu.Unlock()
	}
	net := NewTCPNetwork()
	b := joinTCP(t, net, "B", recvB)
	defer b.Close()
	defer release() // before b.Close, which waits for B's readers
	a := joinTCP(t, net, "A", func(Message) {})
	defer a.Close()
	var evMu sync.Mutex
	var evs []LinkEvent
	a.OnLinkEvent(func(ev LinkEvent) {
		evMu.Lock()
		evs = append(evs, ev)
		evMu.Unlock()
	})
	if err := a.Send("B", Message{Kind: "fire", Rule: "first"}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the first message never reached B")
	}
	// Cut connection 1 as a failed write would; B's reader on it stays
	// inside the callback.
	a.mu.Lock()
	p := a.peers["B"]
	delete(a.peers, "B")
	a.mu.Unlock()
	p.c.Close()
	if err := a.Send("B", Message{Kind: "fire", Rule: "second"}); err != nil {
		t.Fatal(err)
	}
	waitSent(t, a)
	evMu.Lock()
	if len(evs) != 0 {
		t.Fatalf("link events = %+v, want none: the second frame was not written", evs)
	}
	evMu.Unlock()
	// The second frame is written on connection 2.  Unserialized, its
	// reader would call the callback within microseconds; give it ample
	// time to try.
	select {
	case r := <-overlap:
		t.Fatalf("%s was delivered while the callback for first was still running", r)
	case <-time.After(100 * time.Millisecond):
	}
	release()
	select {
	case <-all:
	case <-time.After(5 * time.Second):
		t.Fatal("the second message never reached B")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 || got[0] != "first" || got[1] != "second" {
		t.Fatalf("delivered %v, want [first second]", got)
	}
}

func TestBusZeroLatencyRealClockFIFO(t *testing.T) {
	// On the real clock, equal-deadline timers race; per-pair queues must
	// still deliver in send order.
	bus := NewBus(nil, 0) // nil clock = real
	var mu sync.Mutex
	var got []uint64
	done := make(chan struct{})
	bus.Join("B", func(m Message) {
		mu.Lock()
		got = append(got, m.Trigger.Seq)
		if len(got) == 200 {
			close(done)
		}
		mu.Unlock()
	})
	a, _ := bus.Join("A", nil)
	for i := 0; i < 200; i++ {
		if err := a.Send("B", Message{Trigger: EventRef{Seq: uint64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("messages never all arrived")
	}
	mu.Lock()
	defer mu.Unlock()
	for i, s := range got {
		if s != uint64(i) {
			t.Fatalf("out of order at %d: %v", i, got[:i+1])
		}
	}
}

func TestScrambledSwapsPairs(t *testing.T) {
	clk := vclock.NewVirtual(vclock.Epoch)
	net := NewScrambled(NewBus(clk, 0))
	var got []uint64
	net.Join("B", func(m Message) { got = append(got, m.Trigger.Seq) })
	a, err := net.Join("A", nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		a.Send("B", Message{Trigger: EventRef{Seq: uint64(i)}})
	}
	if f, ok := a.(Flusher); ok {
		f.Flush()
	}
	clk.Advance(time.Second)
	want := []uint64{1, 0, 3, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("got = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got = %v, want %v", got, want)
		}
	}
	a.Close()
}
