package vclock

import (
	"container/heap"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestVirtualNowAdvances(t *testing.T) {
	v := NewVirtual(Epoch)
	if !v.Now().Equal(Epoch) {
		t.Fatalf("Now() = %v, want %v", v.Now(), Epoch)
	}
	v.Advance(3 * time.Second)
	if got, want := v.Now(), Epoch.Add(3*time.Second); !got.Equal(want) {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestVirtualAfterFuncOrder(t *testing.T) {
	v := NewVirtual(Epoch)
	var got []int
	v.AfterFunc(2*time.Second, func() { got = append(got, 2) })
	v.AfterFunc(1*time.Second, func() { got = append(got, 1) })
	v.AfterFunc(3*time.Second, func() { got = append(got, 3) })
	v.Advance(10 * time.Second)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("delivery order = %v, want [1 2 3]", got)
	}
}

func TestVirtualTieBreakBySchedulingOrder(t *testing.T) {
	v := NewVirtual(Epoch)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		v.AfterFunc(time.Second, func() { got = append(got, i) })
	}
	v.Advance(time.Second)
	for i, x := range got {
		if x != i {
			t.Fatalf("tie order = %v, want ascending", got)
		}
	}
}

func TestVirtualAdvancePartial(t *testing.T) {
	v := NewVirtual(Epoch)
	ran := 0
	v.AfterFunc(1*time.Second, func() { ran++ })
	v.AfterFunc(5*time.Second, func() { ran++ })
	v.Advance(2 * time.Second)
	if ran != 1 {
		t.Fatalf("ran = %d, want 1", ran)
	}
	if v.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", v.Pending())
	}
	v.Advance(3 * time.Second)
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
}

func TestVirtualCallbackSchedulesCallback(t *testing.T) {
	v := NewVirtual(Epoch)
	var seen []time.Duration
	v.AfterFunc(time.Second, func() {
		seen = append(seen, v.Now().Sub(Epoch))
		v.AfterFunc(time.Second, func() {
			seen = append(seen, v.Now().Sub(Epoch))
		})
	})
	v.Advance(5 * time.Second)
	if len(seen) != 2 || seen[0] != time.Second || seen[1] != 2*time.Second {
		t.Fatalf("seen = %v, want [1s 2s]", seen)
	}
}

func TestVirtualStop(t *testing.T) {
	v := NewVirtual(Epoch)
	ran := false
	tm := v.AfterFunc(time.Second, func() { ran = true })
	if !tm.Stop() {
		t.Fatal("Stop() = false, want true")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true, want false")
	}
	v.Advance(2 * time.Second)
	if ran {
		t.Fatal("stopped timer ran")
	}
}

func TestVirtualStopAfterFire(t *testing.T) {
	v := NewVirtual(Epoch)
	tm := v.AfterFunc(time.Second, func() {})
	v.Advance(2 * time.Second)
	if tm.Stop() {
		t.Fatal("Stop after fire = true, want false")
	}
}

func TestVirtualZeroDelay(t *testing.T) {
	v := NewVirtual(Epoch)
	ran := false
	v.AfterFunc(0, func() { ran = true })
	if ran {
		t.Fatal("callback ran before Advance")
	}
	v.Advance(0)
	if !ran {
		t.Fatal("zero-delay callback did not run on Advance(0)")
	}
}

func TestVirtualNegativeDelayClamped(t *testing.T) {
	v := NewVirtual(Epoch)
	ran := false
	v.AfterFunc(-time.Hour, func() { ran = true })
	v.Advance(0)
	if !ran {
		t.Fatal("negative-delay callback did not run")
	}
	if v.Now().Before(Epoch) {
		t.Fatal("clock moved backward")
	}
}

func TestVirtualStep(t *testing.T) {
	v := NewVirtual(Epoch)
	var got []int
	v.AfterFunc(2*time.Second, func() { got = append(got, 2) })
	v.AfterFunc(1*time.Second, func() { got = append(got, 1) })
	if !v.Step() {
		t.Fatal("Step() = false with pending timers")
	}
	if got, want := v.Now(), Epoch.Add(time.Second); !got.Equal(want) {
		t.Fatalf("Now after Step = %v, want %v", got, want)
	}
	v.Step()
	if v.Step() {
		t.Fatal("Step() = true with empty heap")
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got = %v", got)
	}
}

func TestVirtualRunLimit(t *testing.T) {
	v := NewVirtual(Epoch)
	for i := 0; i < 5; i++ {
		v.AfterFunc(time.Duration(i)*time.Second, func() {})
	}
	if n := v.Run(3); n != 3 {
		t.Fatalf("Run(3) = %d, want 3", n)
	}
	if n := v.Run(0); n != 2 {
		t.Fatalf("Run(0) = %d, want 2", n)
	}
}

func TestEveryPeriodic(t *testing.T) {
	v := NewVirtual(Epoch)
	var ticks []time.Duration
	tm := Every(v, 300*time.Second, func() {
		ticks = append(ticks, v.Now().Sub(Epoch))
	})
	v.Advance(1000 * time.Second)
	if len(ticks) != 3 {
		t.Fatalf("ticks = %v, want 3 of them", ticks)
	}
	for i, tk := range ticks {
		if want := time.Duration(i+1) * 300 * time.Second; tk != want {
			t.Fatalf("tick %d at %v, want %v", i, tk, want)
		}
	}
	if !tm.Stop() {
		t.Fatal("Stop() = false")
	}
	v.Advance(1000 * time.Second)
	if len(ticks) != 3 {
		t.Fatalf("ticks after Stop = %d, want 3", len(ticks))
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true")
	}
}

func TestEveryPanicsOnBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) did not panic")
		}
	}()
	Every(NewVirtual(Epoch), 0, func() {})
}

func TestRealClockBasics(t *testing.T) {
	var c Clock = Real{}
	before := time.Now()
	now := c.Now()
	if now.Before(before.Add(-time.Minute)) {
		t.Fatal("Real.Now() too far in the past")
	}
	done := make(chan struct{})
	c.AfterFunc(time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Real.AfterFunc callback never ran")
	}
}

func TestVirtualConcurrentSchedule(t *testing.T) {
	v := NewVirtual(Epoch)
	var mu sync.Mutex
	count := 0
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v.AfterFunc(time.Duration(i)*time.Millisecond, func() {
				mu.Lock()
				count++
				mu.Unlock()
			})
		}(i)
	}
	wg.Wait()
	v.Advance(time.Second)
	if count != 50 {
		t.Fatalf("count = %d, want 50", count)
	}
}

// Property: delivering k timers with arbitrary delays visits them in
// nondecreasing time order, and the clock ends at the max delay horizon.
func TestQuickDeliveryOrdered(t *testing.T) {
	f := func(delaysMs []uint16) bool {
		if len(delaysMs) == 0 {
			return true
		}
		v := NewVirtual(Epoch)
		var fired []time.Time
		for _, d := range delaysMs {
			v.AfterFunc(time.Duration(d)*time.Millisecond, func() {
				fired = append(fired, v.Now())
			})
		}
		v.Advance(time.Duration(1<<16) * time.Millisecond)
		if len(fired) != len(delaysMs) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i].Before(fired[j]) }) {
			return false
		}
		want := make([]time.Duration, len(delaysMs))
		for i, d := range delaysMs {
			want[i] = time.Duration(d) * time.Millisecond
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range fired {
			if fired[i].Sub(Epoch) != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: stopping a random subset of timers means exactly the unstopped
// ones fire.
func TestQuickStopSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 100; iter++ {
		v := NewVirtual(Epoch)
		n := rng.Intn(20) + 1
		fired := make([]bool, n)
		timers := make([]Timer, n)
		for i := 0; i < n; i++ {
			i := i
			timers[i] = v.AfterFunc(time.Duration(rng.Intn(100))*time.Millisecond, func() { fired[i] = true })
		}
		stopped := make([]bool, n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				stopped[i] = timers[i].Stop()
			}
		}
		v.Advance(time.Second)
		for i := 0; i < n; i++ {
			if stopped[i] == fired[i] {
				t.Fatalf("iter %d timer %d: stopped=%v fired=%v", iter, i, stopped[i], fired[i])
			}
		}
	}
}

// Pending reports the number of callbacks still scheduled.
func (v *Virtual) Pending() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.hp.Len()
}

// Step delivers the single earliest pending callback, moving the clock to
// its due time.  It reports whether a callback ran.
func (v *Virtual) Step() bool {
	v.mu.Lock()
	if v.hp.Len() == 0 {
		v.mu.Unlock()
		return false
	}
	t := heap.Pop(&v.hp).(*vtimer)
	t.popped = true
	if t.when.After(v.now) {
		v.now = t.when
	}
	f := t.f
	v.mu.Unlock()
	if f != nil && !t.stopped() {
		f()
	}
	return true
}

// Run delivers callbacks until none are pending or the limit is reached.
// A limit of 0 means no limit.  It returns the number of callbacks run.
// Periodic schedules reschedule themselves forever, so scenarios that use
// Every should prefer Advance/AdvanceTo with an explicit horizon.
func (v *Virtual) Run(limit int) int {
	n := 0
	for limit == 0 || n < limit {
		if !v.Step() {
			break
		}
		n++
	}
	return n
}
