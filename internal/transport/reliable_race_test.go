package transport

import (
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cmtk/internal/obs"
	"cmtk/internal/vclock"
)

// TestReliableCountersRace hammers a pair of reliable endpoints from many
// goroutines on the real clock — concurrent Sends, the retry schedule,
// ack handling, and a scraper reading the registry the whole time.  Run
// under -race it is the regression test for the delivery counters, which
// live in the lock-free obs registry rather than under the endpoint's
// mutex.
func TestReliableCountersRace(t *testing.T) {
	reg := obs.NewRegistry()
	bus := NewBus(vclock.Real{}, 0)
	rel := NewReliable(bus, ReliableOptions{
		RetryInterval: time.Millisecond,
		Metrics:       reg,
	})

	const (
		workers = 8
		perW    = 100
	)
	var recvA, recvB atomic.Int64
	epA, err := rel.Join("A", func(Message) { recvA.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	epB, err := rel.Join("B", func(Message) { recvB.Add(1) })
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := reg.WriteText(io.Discard); err != nil {
					t.Error(err)
					return
				}
				reg.Snapshot()
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			from, to := epA, "B"
			if w%2 == 1 {
				from, to = epB, "A"
			}
			for i := 0; i < perW; i++ {
				if err := from.Send(to, Message{Kind: "fire", Rule: strconv.Itoa(i)}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	// Wait for the acks as well as the deliveries: acks trail their
	// messages, and Close cuts off whatever is still in flight.
	want := int64(workers / 2 * perW)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if recvA.Load() >= want && recvB.Load() >= want &&
			reg.Snapshot().Sum("cmtk_transport_acked_total") >= float64(2*want) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	scraper.Wait()
	epA.Close()
	epB.Close()

	// Dedup delivers each message once and each outbox entry retires
	// once, so every count has one right value.
	if recvA.Load() != want || recvB.Load() != want {
		t.Fatalf("delivered A=%d B=%d, want exactly %d each", recvA.Load(), recvB.Load(), want)
	}
	snap := reg.Snapshot()
	if got := snap.Sum("cmtk_transport_sends_total"); got != float64(2*want) {
		t.Fatalf("sends_total = %g, want %g", got, float64(2*want))
	}
	if got := snap.Sum("cmtk_transport_acked_total"); got != float64(2*want) {
		t.Fatalf("acked_total = %g, want exactly %g", got, float64(2*want))
	}
}
