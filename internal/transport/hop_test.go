package transport

import (
	"runtime"
	"testing"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/durable"
	"cmtk/internal/event"
	"cmtk/internal/obs"
)

// TestHopAllocsPerMessage prices the shell-to-shell hop over Reliable
// and loopback TCP, in three arms: one firing outstanding, so each frame
// carries one message; 32 outstanding, the saturated mesh's window, so
// the send-side batcher coalesces; and 32 outstanding through Reliable's
// journal and its checkpoints.  Everything between the sending shell's
// Send and the receiving shell's callback counts — the firing's own
// construction, sequencing, journaling, batching, framing, decoding and
// the ack flowing back — divided by the firings delivered.
//
// The unbatched and journaled bounds sit at most 5 % above what 20
// isolated runs read (6.4–6.6 allocs and 1 009–1 031 B unbatched, 6.0
// and 966–1 034 B journaled), so each cost those arms no longer pay
// fails here if it comes back: a closure allocated at every idle-to-busy
// start of the TCP flusher (about 1.4 allocs unbatched), a WAL frame
// built in fresh slices (3 allocs per journal append), or a trigger
// descriptor rendered to a string per journaled send (1).  With all
// three those arms read 8.2 and 13.2 allocs.  The batched bounds sit
// below the 1 300 B the arm cost with a six-word data.Value, and at the
// top of what it reads now (about 6.0 allocs, 960–1 058 B), because how
// many firings share a frame follows scheduling.
func TestHopAllocsPerMessage(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	for _, arm := range []struct {
		name          string
		window        int
		journaled     bool
		allocs, bytes float64
	}{
		{"unbatched", 1, false, 6.9, 1080},
		{"batched", 32, false, 6.25, 1060},
		{"journaled", 32, true, 6.3, 1085},
	} {
		t.Run(arm.name, func(t *testing.T) {
			allocs, bytes := hopCost(t, arm.window, arm.journaled)
			t.Logf("hop: %.1f allocs, %.0f B per firing", allocs, bytes)
			if allocs > arm.allocs || bytes > arm.bytes {
				t.Errorf("hop costs %.1f allocs and %.0f B per firing, want at most %v and %v",
					allocs, bytes, arm.allocs, arm.bytes)
			}
		})
	}
}

// hopCost sends firings from A to B with window of them outstanding,
// through a journal when journaled is set, and returns the allocations and
// bytes per firing delivered.
func hopCost(t *testing.T, window int, journaled bool) (allocs, bytes float64) {
	const (
		warm  = 2_000
		total = 20_000
	)
	// The window closes on arrivals, as the saturated mesh's does, so
	// nothing bounds how far acks trail the data: on two cores a
	// scheduling hiccup lets the sender get a thousand firings ahead of
	// its ack processing.  A roomy outbox keeps that a delay rather than
	// an overflow, which would lose firings and stall the loop.
	reg := obs.NewRegistry()
	opts := ReliableOptions{Metrics: reg, outboxLimit: 1 << 16}
	if journaled {
		st, err := durable.Open(t.TempDir(), durable.Options{Sync: durable.SyncNever, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		opts.Durable = st
	}
	net := NewReliable(NewTCPNetwork(), opts)
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
	return float64(after.Mallocs-before.Mallocs) / total,
		float64(after.TotalAlloc-before.TotalAlloc) / total
}
