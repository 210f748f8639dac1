package workload

import (
	"testing"
	"testing/quick"
	"time"
)

func TestKeys(t *testing.T) {
	ks := Keys(3)
	if len(ks) != 3 || ks[0] != "e1" || ks[2] != "e3" {
		t.Fatalf("Keys = %v", ks)
	}
	if len(Keys(0)) != 0 {
		t.Fatal("Keys(0) nonempty")
	}
}

func TestStreamDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, Keys: Keys(5), N: 50, MeanGap: time.Second, Poisson: true, DupFraction: 0.3}
	a := Stream(cfg)
	b := Stream(cfg)
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestStreamMonotoneTimes(t *testing.T) {
	us := Stream(Config{Seed: 1, Keys: Keys(2), N: 100, MeanGap: time.Second, Poisson: true})
	for i := 1; i < len(us); i++ {
		if us[i].At < us[i-1].At {
			t.Fatalf("times go backward at %d", i)
		}
	}
}

func TestStreamRegularGap(t *testing.T) {
	us := Stream(Config{Seed: 1, Keys: Keys(1), N: 5, MeanGap: 2 * time.Second})
	for i, u := range us {
		if want := time.Duration(i+1) * 2 * time.Second; u.At != want {
			t.Fatalf("update %d at %v, want %v", i, u.At, want)
		}
	}
}

func TestStreamDupFraction(t *testing.T) {
	// With DupFraction 1, after the first value per key everything repeats.
	us := Stream(Config{Seed: 1, Keys: Keys(1), N: 20, MeanGap: time.Second, DupFraction: 1})
	first := us[0].Value
	for _, u := range us {
		if u.Value != first {
			t.Fatalf("value changed despite dup=1: %v", us)
		}
	}
	// With DupFraction 0 every update changes the key's value.
	us0 := Stream(Config{Seed: 1, Keys: Keys(1), N: 20, MeanGap: time.Second})
	for i := 1; i < len(us0); i++ {
		if us0[i].Value == us0[i-1].Value {
			t.Fatalf("update %d repeats its key's value despite dup=0: %v", i, us0)
		}
	}
}

func TestStreamEmptyConfigs(t *testing.T) {
	if Stream(Config{}) != nil {
		t.Fatal("empty config produced updates")
	}
	if Stream(Config{N: 5}) != nil {
		t.Fatal("keyless config produced updates")
	}
}

func TestStatsHelpers(t *testing.T) {
	ds := []time.Duration{3 * time.Second, time.Second, 2 * time.Second}
	if Mean(ds) != 2*time.Second {
		t.Fatalf("Mean = %v", Mean(ds))
	}
	if Max(ds) != 3*time.Second {
		t.Fatalf("Max = %v", Max(ds))
	}
	if Percentile(ds, 50) != 2*time.Second {
		t.Fatalf("P50 = %v", Percentile(ds, 50))
	}
	if Percentile(ds, 100) != 3*time.Second {
		t.Fatalf("P100 = %v", Percentile(ds, 100))
	}
	if Mean(nil) != 0 || Max(nil) != 0 || Percentile(nil, 99) != 0 {
		t.Fatal("empty-slice helpers nonzero")
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(raw []int16, pa, pb uint8) bool {
		if len(raw) == 0 {
			return true
		}
		ds := make([]time.Duration, len(raw))
		for i, r := range raw {
			d := time.Duration(r)
			if d < 0 {
				d = -d
			}
			ds[i] = d * time.Millisecond
		}
		lo := float64(pa % 101)
		hi := float64(pb % 101)
		if lo > hi {
			lo, hi = hi, lo
		}
		a, b := Percentile(ds, lo), Percentile(ds, hi)
		return a <= b && b <= Max(ds)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
