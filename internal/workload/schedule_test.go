package workload

import (
	"testing"
	"time"
)

func TestConstantScheduleExactArrivals(t *testing.T) {
	s := Constant(10, 2*time.Second) // 10/s for 2s → exactly 20 arrivals
	got := s.Arrivals()
	if len(got) != 20 {
		t.Fatalf("constant 10/s x 2s: got %d arrivals, want 20", len(got))
	}
	for i, at := range got {
		want := time.Duration(i+1) * 100 * time.Millisecond
		if at != want {
			t.Fatalf("arrival %d at %v, want %v", i, at, want)
		}
	}
}

func TestScheduleUpdatesDeterministicFreshValues(t *testing.T) {
	s := Constant(20, time.Second)
	us := s.Updates(Keys(4), 7, 250*time.Millisecond)
	if len(us) != 20 {
		t.Fatalf("updates = %d, want 20", len(us))
	}
	seen := map[int64]bool{}
	for i, u := range us {
		if u.Deadline != 250*time.Millisecond {
			t.Fatalf("update %d deadline = %v", i, u.Deadline)
		}
		if seen[u.Value] {
			t.Fatalf("update %d reuses value %d", i, u.Value)
		}
		seen[u.Value] = true
	}
	again := s.Updates(Keys(4), 7, 250*time.Millisecond)
	for i := range us {
		if us[i] != again[i] {
			t.Fatalf("non-deterministic update %d: %+v vs %+v", i, us[i], again[i])
		}
	}
}
