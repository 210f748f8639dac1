// Package vclock provides the notion of time used throughout the toolkit.
//
// The paper's interfaces, strategies and guarantees are all stated with
// explicit time bounds (the δ and ε subscripts of Section 3).  To make those
// bounds testable we route every timer and every timestamp through a Clock.
// Two implementations are provided: Real, a thin wrapper over package time
// for live deployments, and Virtual, a deterministic discrete-event
// scheduler used by tests, examples and the benchmark harness.  With a
// Virtual clock an entire multi-site scenario runs single-threaded and
// reproducibly, so metric guarantees such as "within κ seconds" can be
// verified exactly rather than flakily.
package vclock

import (
	"container/heap"
	"sync"
	"time"

	"cmtk/internal/data"
)

// Timer is a handle to a pending callback scheduled with AfterFunc.
type Timer interface {
	// Stop cancels the timer.  It reports whether the call stopped the
	// timer before its callback ran.
	Stop() bool
}

// Clock abstracts "now" and one-shot timers.  All toolkit components take a
// Clock rather than calling package time directly.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// AfterFunc schedules f to run once after duration d.  The callback
	// runs on an unspecified goroutine for Real clocks and synchronously
	// inside Advance/Step for Virtual clocks.
	AfterFunc(d time.Duration, f func()) Timer
}

// Real is a Clock backed by the system clock.  The zero value is usable.
type Real struct{}

// Now implements Clock.
//
//cmlint:allow wallclock(Real is the one sanctioned bridge to the system clock)
func (Real) Now() time.Time { return time.Now() }

// AfterFunc implements Clock.
//
//cmlint:allow wallclock(Real is the one sanctioned bridge to the system clock)
func (Real) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

var _ Clock = Real{}

// Virtual is a deterministic simulated Clock.  Time stands still except
// inside Advance, AdvanceTo and Run, which deliver pending callbacks in
// timestamp order (ties broken by scheduling order).  Virtual is safe for
// concurrent use, but for full determinism scenarios should schedule and
// advance from a single goroutine.
type Virtual struct {
	mu   sync.Mutex
	now  time.Time
	seq  uint64
	hp   timerHeap
	busy bool // true while delivering callbacks
}

// NewVirtual returns a Virtual clock whose current time is start.
func NewVirtual(start time.Time) *Virtual {
	return &Virtual{now: start}
}

// Epoch is the conventional start instant used by tests and benches.
var Epoch = time.Date(1996, time.February, 26, 0, 0, 0, 0, time.UTC)

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// AfterFunc implements Clock.  A non-positive d schedules f at the current
// instant; it still will not run until the next Advance, Step or Run call.
func (v *Virtual) AfterFunc(d time.Duration, f func()) Timer {
	if d < 0 {
		d = 0
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	t := &vtimer{clock: v, when: v.now.Add(d), seq: v.seq, f: f}
	v.seq++
	heap.Push(&v.hp, t)
	return t
}

// Advance moves the clock forward by d, delivering every callback that
// falls due, in order.  Callbacks may schedule further callbacks; those are
// delivered too if they fall within the window.
func (v *Virtual) Advance(d time.Duration) {
	v.AdvanceTo(v.Now().Add(d))
}

// AdvanceTo moves the clock forward to instant t (never backward),
// delivering every callback due at or before t in order.
func (v *Virtual) AdvanceTo(t time.Time) {
	for {
		v.mu.Lock()
		if v.hp.Len() == 0 || v.hp[0].when.After(t) {
			if t.After(v.now) {
				v.now = t
			}
			v.mu.Unlock()
			return
		}
		tm := heap.Pop(&v.hp).(*vtimer)
		tm.popped = true
		if tm.when.After(v.now) {
			v.now = tm.when
		}
		f := tm.f
		v.mu.Unlock()
		if f != nil && !tm.stopped() {
			f()
		}
	}
}

type vtimer struct {
	clock  *Virtual
	when   time.Time
	seq    uint64
	f      func()
	idx    int
	popped bool
	mu     sync.Mutex
	dead   bool
}

func (t *vtimer) Stop() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dead {
		return false
	}
	t.dead = true
	// If still in the heap it will be skipped at delivery time; removing it
	// eagerly would require holding the clock lock here, inviting lock-order
	// trouble with callbacks that call Stop.
	return !t.popped
}

func (t *vtimer) stopped() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dead {
		return true
	}
	t.dead = true // callback is about to run exactly once
	return false
}

type timerHeap []*vtimer

func (h timerHeap) Len() int { return len(h) }

func (h timerHeap) Less(i, j int) bool {
	if !h[i].when.Equal(h[j].when) {
		return h[i].when.Before(h[j].when)
	}
	return h[i].seq < h[j].seq
}

func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *timerHeap) Push(x any) {
	t := x.(*vtimer)
	t.idx = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// Every schedules f to run on clock c every period p, starting one period
// from now.  It returns a Timer whose Stop cancels the schedule.  This is
// the implementation behind the paper's periodic events P(p).
func Every(c Clock, p time.Duration, f func()) Timer {
	if p <= 0 {
		panic("vclock: non-positive period")
	}
	e := &every{clock: c, period: p, f: f}
	e.mu.Lock()
	e.inner = c.AfterFunc(p, e.tick)
	e.mu.Unlock()
	return e
}

type every struct {
	clock  Clock
	period time.Duration
	f      func()
	mu     sync.Mutex
	inner  Timer
	dead   bool
}

func (e *every) tick() {
	e.mu.Lock()
	if e.dead {
		e.mu.Unlock()
		return
	}
	e.inner = e.clock.AfterFunc(e.period, e.tick)
	e.mu.Unlock()
	e.f()
}

func (e *every) Stop() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dead {
		return false
	}
	e.dead = true
	if e.inner != nil {
		e.inner.Stop()
	}
	return true
}

// TimeValue encodes an instant as a data.Value holding whole seconds
// since Epoch, so rule strategies can store times in data items (the Tb
// auxiliary item of Section 6.3).
func TimeValue(t time.Time) data.Value {
	return data.NewInt(int64(t.Sub(Epoch) / time.Second))
}

// ValueTime decodes a TimeValue; ok is false for non-numeric values.
func ValueTime(v data.Value) (time.Time, bool) {
	f, ok := v.AsFloat()
	if !ok {
		return time.Time{}, false
	}
	return Epoch.Add(time.Duration(f * float64(time.Second))), true
}
