package transport

import (
	"runtime"
	"testing"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/event"
	"cmtk/internal/obs"
)

// TestHopAllocsPerMessage prices the shell-to-shell hop on the path the
// saturated mesh takes: Reliable over loopback TCP with 32 firings
// outstanding, so the send-side batcher coalesces.  Everything between
// the sending shell's Send and the receiving shell's callback counts —
// the firing's own construction, sequencing, batching, framing, decoding,
// the inbox hand-off and the ack flowing back — divided by the firings
// delivered.  The bound sits below 15, the cost when the codec rendered
// the trigger's descriptor through Desc.String and fmt, so that path
// coming back fails here.
func TestHopAllocsPerMessage(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	const (
		warm   = 2_000
		total  = 20_000
		window = 32
	)
	// The window closes on arrivals, as the saturated mesh's does, so
	// nothing bounds how far acks trail the data: on two cores a
	// scheduling hiccup lets the sender get a thousand firings ahead of
	// its ack processing.  A roomy outbox keeps that a delay rather than
	// an overflow, which would lose firings and stall the loop.
	reg := obs.NewRegistry()
	net := NewReliable(NewTCPNetwork(), ReliableOptions{Metrics: reg, OutboxLimit: 1 << 16})
	arrived := make(chan struct{}, warm+total)
	epB, err := net.Join("B", func(Message) { arrived <- struct{}{} })
	if err != nil {
		t.Fatal(err)
	}
	defer epB.Close()
	epA, err := net.Join("A", func(Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer epA.Close()

	// One trigger event, as a shell's trace would hold it; the firing
	// itself is built per send, as dispatch builds it.
	at := time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC)
	trig := &event.Event{Site: "A", Seq: 1, Time: at,
		Desc: event.N(data.Item("salary1", data.NewString("e7")), data.NewInt(100))}
	send := func(i int) {
		err := epA.Send("B", Message{
			Kind: "fire", Rule: "prop",
			BindingsVal:  event.Bindings{"n": data.NewString("e7"), "b": data.NewInt(int64(i))},
			Trigger:      EventRef{Site: "A", Seq: uint64(i), Time: at},
			TriggerEvent: trig,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	timeout := time.NewTimer(time.Hour)
	defer timeout.Stop()
	wait := func() {
		timeout.Reset(10 * time.Second)
		select {
		case <-arrived:
		case <-timeout.C:
			t.Fatalf("a firing is overdue: %d unacked at A; counters %v",
				epA.(*ReliableEndpoint).Pending("B"), reg.Snapshot())
		}
	}
	run := func(n int) {
		for i := 0; i < n; i++ {
			if i >= window {
				wait()
			}
			send(i)
		}
		for i := 0; i < min(n, window); i++ {
			wait()
		}
	}
	run(warm)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(total)
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / total
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / total
	t.Logf("hop: %.1f allocs, %.0f B per firing", allocs, bytes)
	if allocs > 10 || bytes > 2<<10 {
		t.Errorf("hop costs %.1f allocs and %.0f B per firing, want at most 10 and 2048", allocs, bytes)
	}
}
