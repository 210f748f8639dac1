package obs

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// TestRegistryConcurrency hammers one registry from many goroutines —
// counters, a gauge, and a histogram sharing series — and checks the
// totals.  Run under -race this is the hot path's data-race regression
// test.
func TestRegistryConcurrency(t *testing.T) {
	reg := NewRegistry()
	const (
		workers = 16
		perW    = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := reg.Counter("hits_total", "", "who").With("w")
			h := reg.Histogram("lat_seconds", "", []float64{0.01, 0.1, 1}).With()
			for i := 0; i < perW; i++ {
				c.Inc()
				h.Observe(0.05)
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("hits_total", "", "who").With("w").Value(); got != workers*perW {
		t.Fatalf("counter = %d, want %d", got, workers*perW)
	}
	snap := reg.Snapshot()
	if got := snap["lat_seconds_count"]; got != workers*perW {
		t.Fatalf("histogram count = %g, want %d", got, workers*perW)
	}
	if got := snap["lat_seconds_sum"]; math.Abs(got-0.05*workers*perW) > 1 {
		t.Fatalf("histogram sum = %g, want ≈%g", got, 0.05*float64(workers*perW))
	}
}

// TestHistogramBucketBoundaries pins the le-inclusive bucket semantics:
// an observation equal to an upper bound lands in that bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	bounds := []float64{0.1, 0.5, 1, 5}
	cases := []struct {
		v       float64
		cum     []uint64 // expected cumulative bucket counts after observing v alone
		inRange bool     // false: only +Inf counts it
	}{
		{0, []uint64{1, 1, 1, 1}, true},
		{0.05, []uint64{1, 1, 1, 1}, true},
		{0.1, []uint64{1, 1, 1, 1}, true}, // equal to bound: le-inclusive
		{0.10001, []uint64{0, 1, 1, 1}, true},
		{0.5, []uint64{0, 1, 1, 1}, true},
		{0.75, []uint64{0, 0, 1, 1}, true},
		{1, []uint64{0, 0, 1, 1}, true},
		{4.999, []uint64{0, 0, 0, 1}, true},
		{5, []uint64{0, 0, 0, 1}, true},
		{5.001, []uint64{0, 0, 0, 0}, false},
		{100, []uint64{0, 0, 0, 0}, false},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("v=%g", tc.v), func(t *testing.T) {
			reg := NewRegistry()
			h := reg.Histogram("h", "", bounds).With()
			h.Observe(tc.v)
			s := h.s
			var cum uint64
			for i := range bounds {
				cum += s.counts[i].Load()
				if cum != tc.cum[i] {
					t.Fatalf("bucket le=%g cumulative = %d, want %d", bounds[i], cum, tc.cum[i])
				}
			}
			if n := h.s.count.Load(); n != 1 {
				t.Fatalf("count = %d, want 1", n)
			}
			if inRange := cum == 1; inRange != tc.inRange {
				t.Fatalf("finite-bucket coverage = %v, want %v", inRange, tc.inRange)
			}
		})
	}
}

// TestRegisterIdempotentAndMismatch checks that re-registering the same
// family is a no-op while changing its shape is a programming error.
func TestRegisterIdempotentAndMismatch(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "help", "l")
	b := reg.Counter("x_total", "other help ignored", "l")
	a.With("v").Inc()
	if got := b.With("v").Value(); got != 1 {
		t.Fatalf("second registration sees %d, want 1 (same family)", got)
	}
	mustPanic(t, func() { reg.Gauge("x_total", "") })
	mustPanic(t, func() { reg.Counter("x_total", "", "l", "m") })
	reg.Histogram("h", "", []float64{1, 2})
	mustPanic(t, func() { reg.Histogram("h", "", []float64{1, 2, 3}) })
	mustPanic(t, func() { reg.Histogram("bad", "", []float64{2, 1}) })
	mustPanic(t, func() { a.With("v", "extra") })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

// TestSnapshotDeltaSum covers the cmbench -obs primitives.
func TestSnapshotDeltaSum(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("ops_total", "", "op")
	c.With("read").Add(3)
	c.With("write").Add(2)
	reg.Gauge("depth", "").With().Set(7)
	before := reg.Snapshot()
	c.With("read").Add(4)
	reg.Gauge("depth", "").With().Set(5)
	delta := reg.Snapshot().Delta(before)
	if len(delta) != 2 {
		t.Fatalf("delta = %v, want 2 entries", delta)
	}
	if delta[`ops_total{op="read"}`] != 4 {
		t.Fatalf("read delta = %v", delta[`ops_total{op="read"}`])
	}
	if delta["depth"] != -2 {
		t.Fatalf("gauge delta = %v", delta["depth"])
	}
	if got := reg.Snapshot().Sum("ops_total"); got != 9 {
		t.Fatalf("Sum(ops_total) = %g, want 9", got)
	}
}
