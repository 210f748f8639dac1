// Package chaos schedules declarative fault campaigns against a running
// deployment and records exactly what it did, when.
//
// The paper's §5 failure taxonomy promises that crashes and partitions
// degrade constraint guarantees to *metric* failures rather than silent
// violations.  PRs 1–3 built the machinery (reliable links, Flaky fault
// injection, WAL recovery); this package adds the missing discipline: a
// campaign is a list of faults with explicit injection instants and
// durations, run off a Clock (virtual in tests and E15, or real time),
// and every action lands in a recorded timeline.  Experiments correlate
// that timeline against guarantee verdicts and latency histograms and
// assert *exactly* which faults fired and which guarantees degraded and
// recovered — never weak ">= 1 event" counts, the failure mode ROADMAP
// open item 5 calls out.
package chaos

import (
	"fmt"
	"sync"
	"time"

	"cmtk/internal/transport"
	"cmtk/internal/vclock"
)

// Timeline entry actions.
const (
	ActInject  = "inject"
	ActRecover = "recover"
)

// Fault is one scheduled fault: Inject runs At after campaign start and,
// when Duration > 0 and Recover is set, Recover runs At+Duration after
// start.  A Fault with Duration 0 never recovers on its own (a permanent
// fault, or one the scenario heals out of band).
type Fault struct {
	Name     string
	At       time.Duration
	Duration time.Duration
	Inject   func()
	Recover  func()
}

// Campaign is a named list of faults making up one chaos scenario.
type Campaign struct {
	Name   string
	Faults []Fault
}

// Entry is one recorded campaign action.
type Entry struct {
	At     time.Time
	Fault  string
	Action string // ActInject or ActRecover
}

func (e Entry) String() string {
	return fmt.Sprintf("%s %s %s", e.At.Format("15:04:05.000"), e.Action, e.Fault)
}

// Runner executes a campaign on a clock.  Faults are armed at Start;
// actions record into the timeline as they run.
type Runner struct {
	clock vclock.Clock

	mu       sync.Mutex
	timeline []Entry
	timers   []vclock.Timer
	stopped  bool
}

// Start arms every fault of the campaign on the given clock (nil means
// real time) and returns the runner.  Injection order among faults due at
// the same instant follows their order in the campaign, which a virtual
// clock preserves exactly.
func Start(clock vclock.Clock, c Campaign) *Runner {
	if clock == nil {
		clock = vclock.Real{}
	}
	r := &Runner{clock: clock}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range c.Faults {
		f := c.Faults[i]
		if f.Inject != nil {
			r.timers = append(r.timers, clock.AfterFunc(f.At, func() {
				r.act(f.Name, ActInject, f.Inject)
			}))
		}
		if f.Recover != nil && f.Duration > 0 {
			r.timers = append(r.timers, clock.AfterFunc(f.At+f.Duration, func() {
				r.act(f.Name, ActRecover, f.Recover)
			}))
		}
	}
	return r
}

// act records one action and runs it (outside the runner lock, so fault
// bodies may inspect the runner).
func (r *Runner) act(name, action string, fn func()) {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.timeline = append(r.timeline, Entry{At: r.clock.Now(), Fault: name, Action: action})
	r.mu.Unlock()
	fn()
}

// Stop cancels every action not yet run.  Already-injected faults are NOT
// recovered — a stopped campaign leaves the system as it is, like a real
// operator killing a chaos job mid-run.
func (r *Runner) Stop() {
	r.mu.Lock()
	r.stopped = true
	timers := r.timers
	r.timers = nil
	r.mu.Unlock()
	for _, t := range timers {
		t.Stop()
	}
}

// ---- fault constructors binding to the toolkit's injection points ----

// Partition severs both directions between two shells on a Flaky network
// for dur, then heals exactly those links.
func Partition(f *transport.Flaky, a, b string, at, dur time.Duration) Fault {
	return Fault{
		Name: fmt.Sprintf("partition %s<->%s", a, b),
		At:   at, Duration: dur,
		Inject: func() { f.PartitionBoth(a, b) },
		Recover: func() {
			f.Heal(a, b)
			f.Heal(b, a)
		},
	}
}

// Lossy raises the network's drop probability to p for dur, then restores
// lossless delivery.
func Lossy(f *transport.Flaky, p float64, at, dur time.Duration) Fault {
	return Fault{
		Name: fmt.Sprintf("lossy %.0f%%", p*100),
		At:   at, Duration: dur,
		Inject:  func() { f.SetDrop(p) },
		Recover: func() { f.SetDrop(0) },
	}
}

// Slow defers each message with probability p by `by` for dur, modelling
// a congested or mis-routed link, then restores normal latency.
func Slow(f *transport.Flaky, p float64, by, at, dur time.Duration) Fault {
	return Fault{
		Name: fmt.Sprintf("slow +%s", by),
		At:   at, Duration: dur,
		Inject:  func() { f.SetDelay(p, by) },
		Recover: func() { f.SetDelay(0, 0) },
	}
}

// Skew offsets one site's clock by off for dur, then re-syncs it — the
// NTP-drift fault whose effect on metric guarantee verdicts is exactly
// the δ/ε arithmetic of Section 3 (see vclock.Skewed).
func Skew(c *vclock.Skewed, off time.Duration, at, dur time.Duration) Fault {
	return Fault{
		Name: fmt.Sprintf("skew %s", off),
		At:   at, Duration: dur,
		Inject:  func() { c.SetOffset(off) },
		Recover: func() { c.Resync() },
	}
}
