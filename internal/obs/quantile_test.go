package obs

import (
	"math"
	"strings"
	"testing"
)

// TestHistogramQuantile reads a histogram the way the harness does: the
// registry's exposition text through ParseHistogram, then the estimator.
func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_test_seconds", "", []float64{0.1, 0.5, 1, 5}, "site").With("A")
	scrape := func() (bounds []float64, cum []uint64, count uint64) {
		var sb strings.Builder
		if err := r.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		bounds, cum, count, _, _ = ParseHistogram(sb.String(), "q_test_seconds")
		return bounds, cum, count
	}
	if bounds, cum, count := scrape(); !math.IsNaN(QuantileFromBuckets(bounds, cum, count, 0.5)) {
		t.Fatal("empty histogram should yield NaN")
	}
	// 80 observations in (0, 0.1], 15 in (0.1, 0.5], 5 in (0.5, 1].
	for i := 0; i < 80; i++ {
		h.Observe(0.05)
	}
	for i := 0; i < 15; i++ {
		h.Observe(0.3)
	}
	for i := 0; i < 5; i++ {
		h.Observe(0.7)
	}
	bounds, cum, count := scrape()
	// p50 rank 50 inside first bucket: 0 + 0.1*(50/80) = 0.0625.
	if got := QuantileFromBuckets(bounds, cum, count, 0.50); math.Abs(got-0.0625) > 1e-9 {
		t.Fatalf("p50 = %v, want 0.0625", got)
	}
	// p99 rank 99 inside (0.5,1]: 0.5 + 0.5*(99-95)/5 = 0.9.
	if got := QuantileFromBuckets(bounds, cum, count, 0.99); math.Abs(got-0.9) > 1e-9 {
		t.Fatalf("p99 = %v, want 0.9", got)
	}
	// Beyond the last finite bound: clamp.
	h.Observe(30)
	bounds, cum, count = scrape()
	if got := QuantileFromBuckets(bounds, cum, count, 0.9999); got != 5 {
		t.Fatalf("p99.99 = %v, want clamp to 5", got)
	}
}

func TestParseHistogramRoundTrip(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("rt_seconds", "round trip", []float64{0.01, 0.1, 1}, "shell")
	a, b := h.With("A"), h.With("B")
	for i := 0; i < 10; i++ {
		a.Observe(0.005)
	}
	for i := 0; i < 4; i++ {
		b.Observe(0.05)
	}
	a.Observe(2) // +Inf bucket
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	bounds, cum, count, sum, ok := ParseHistogram(sb.String(), "rt_seconds")
	if !ok {
		t.Fatal("family not found in exposition")
	}
	if len(bounds) != 3 || bounds[0] != 0.01 || bounds[2] != 1 {
		t.Fatalf("bounds = %v", bounds)
	}
	if count != 15 {
		t.Fatalf("count = %d, want 15", count)
	}
	if math.Abs(sum-(10*0.005+4*0.05+2)) > 1e-9 {
		t.Fatalf("sum = %v", sum)
	}
	// Aggregated cumulative counts: le=0.01 → 10, le=0.1 → 14, le=1 → 14.
	if cum[0] != 10 || cum[1] != 14 || cum[2] != 14 {
		t.Fatalf("cumulative = %v", cum)
	}
	// p50 over the aggregate: rank 7.5 in first bucket → 0.0075.
	if got := QuantileFromBuckets(bounds, cum, count, 0.5); math.Abs(got-0.0075) > 1e-9 {
		t.Fatalf("aggregate p50 = %v", got)
	}
	if _, _, _, _, ok := ParseHistogram(sb.String(), "missing_family"); ok {
		t.Fatal("missing family reported ok")
	}
}
