// Flaky is the fault-injection counterpart to Scrambled: where Scrambled
// attacks ordering, Flaky attacks delivery itself.  It wraps any Network
// and, per message, may drop it, duplicate it, or delay the duplicate's
// dispatch — all driven by a seeded PRNG so a scenario's fault schedule
// is reproducible.  Directed partitions (Partition/Heal) black-hole all
// traffic on a link, modelling an outage: sends succeed from the caller's
// point of view, nothing arrives.  Together with Reliable it forms the
// E12 ablation harness — guarantees survive faults with the reliability
// layer and fail without it.

package transport

import (
	"math/rand"
	"sync"
	"time"

	"cmtk/internal/obs"
	"cmtk/internal/vclock"
)

// FlakyOptions configures the fault injector.  Probabilities are in
// [0, 1] and evaluated independently per message.
type FlakyOptions struct {
	// Clock schedules delayed duplicates; nil means real time.
	Clock vclock.Clock
	// Seed drives the fault schedule deterministically.
	Seed int64
	// Drop is the probability a message is silently discarded.
	Drop float64
	// Metrics is the registry the injected-fault counters land in; nil
	// means obs.Default.
	Metrics *obs.Registry

	// duplicate is the probability a message is delivered twice; only
	// tests set it.
	duplicate float64
	// delay is the probability a message's duplicate copy (or the message
	// itself, if not dropped) is deferred by delayBy (default 50ms) before
	// entering the underlying network; SetDelay sets both.
	delay   float64
	delayBy time.Duration
}

// Flaky injects message loss, duplication, extra delay, and directed
// partitions into an inner Network.
type Flaky struct {
	inner Network
	opts  FlakyOptions
	clock vclock.Clock

	mu     sync.Mutex
	rng    *rand.Rand
	parted map[[2]string]bool // {from, to} → black-holed

	// injected-fault counters by kind
	mDrop, mDup, mDelay, mPart *obs.Counter
}

// NewFlaky wraps a network with seeded fault injection.
func NewFlaky(inner Network, opts FlakyOptions) *Flaky {
	if opts.Clock == nil {
		opts.Clock = vclock.Real{}
	}
	if opts.delayBy <= 0 {
		opts.delayBy = 50 * time.Millisecond
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.Default
	}
	faults := reg.Counter("cmtk_flaky_faults_total",
		"Faults injected by the Flaky wrapper, by kind (drop, duplicate, delay, partition).", "kind")
	return &Flaky{
		inner:  inner,
		opts:   opts,
		clock:  opts.Clock,
		rng:    rand.New(rand.NewSource(opts.Seed)),
		parted: map[[2]string]bool{},
		mDrop:  faults.With("drop"),
		mDup:   faults.With("duplicate"),
		mDelay: faults.With("delay"),
		mPart:  faults.With("partition"),
	}
}

// Partition black-holes all traffic from one shell to another (directed:
// the reverse direction stays up unless partitioned separately).  Sends
// still return nil — the outage is silent, as on a real network.
func (f *Flaky) Partition(from, to string) {
	f.mu.Lock()
	f.parted[[2]string{from, to}] = true
	f.mu.Unlock()
}

// PartitionBoth severs both directions between two shells.
func (f *Flaky) PartitionBoth(a, b string) {
	f.Partition(a, b)
	f.Partition(b, a)
}

// SetDrop replaces the drop probability for subsequent sends.  Runtime
// mutation is what lets a fault campaign (internal/chaos) phase lossy
// links in and out mid-run; the PRNG stream is unaffected, so a campaign
// with the same seed and phase boundaries replays identically.
func (f *Flaky) SetDrop(p float64) {
	f.mu.Lock()
	f.opts.Drop = p
	f.mu.Unlock()
}

// SetDelay replaces the delay probability and the added latency for
// subsequent sends (a by of 0 keeps the current latency).
func (f *Flaky) SetDelay(p float64, by time.Duration) {
	f.mu.Lock()
	f.opts.delay = p
	if by > 0 {
		f.opts.delayBy = by
	}
	f.mu.Unlock()
}

// Heal restores the directed link from one shell to another.
func (f *Flaky) Heal(from, to string) {
	f.mu.Lock()
	delete(f.parted, [2]string{from, to})
	f.mu.Unlock()
}

// HealAll restores every partitioned link.
func (f *Flaky) HealAll() {
	f.mu.Lock()
	f.parted = map[[2]string]bool{}
	f.mu.Unlock()
}

// Join implements Network.
func (f *Flaky) Join(shellID string, recv func(Message)) (Endpoint, error) {
	inner, err := f.inner.Join(shellID, recv)
	if err != nil {
		return nil, err
	}
	return &flakyEndpoint{f: f, from: shellID, inner: inner}, nil
}

var _ Network = (*Flaky)(nil)

type flakyEndpoint struct {
	f     *Flaky
	from  string
	inner Endpoint
}

// Send implements Endpoint, applying the fault schedule.
func (e *flakyEndpoint) Send(to string, m Message) error {
	f := e.f
	f.mu.Lock()
	if f.parted[[2]string{e.from, to}] {
		f.mu.Unlock()
		f.mPart.Inc()
		return nil // black hole: silently lost
	}
	drop := f.rng.Float64() < f.opts.Drop
	dup := f.rng.Float64() < f.opts.duplicate
	delay := f.rng.Float64() < f.opts.delay
	delayBy := f.opts.delayBy
	f.mu.Unlock()
	if drop {
		f.mDrop.Inc()
	}
	if dup {
		f.mDup.Inc()
	}
	if delay {
		f.mDelay.Inc()
	}
	if drop && !dup {
		return nil
	}
	send := func() { e.inner.Send(to, m) }
	switch {
	case drop && dup:
		// The original is lost but its duplicate survives.
		if delay {
			f.clock.AfterFunc(delayBy, send)
			return nil
		}
		return e.inner.Send(to, m)
	case dup:
		if err := e.inner.Send(to, m); err != nil {
			return err
		}
		if delay {
			f.clock.AfterFunc(delayBy, send)
			return nil
		}
		return e.inner.Send(to, m)
	case delay:
		f.clock.AfterFunc(delayBy, send)
		return nil
	default:
		return e.inner.Send(to, m)
	}
}

func (e *flakyEndpoint) Close() error { return e.inner.Close() }

var _ Endpoint = (*flakyEndpoint)(nil)
