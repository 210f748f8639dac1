package translator

import (
	"fmt"
	"sync"

	"cmtk/internal/cmi"
	"cmtk/internal/data"
	"cmtk/internal/ris"
	"cmtk/internal/rule"
	"cmtk/internal/vclock"
)

// FaultMode selects the injected failure behaviour of a Faulty wrapper.
type FaultMode int

// Fault modes.
const (
	// Healthy passes operations through untouched.
	Healthy FaultMode = iota
	// Slow models the paper's metric failure (Section 5): the database is
	// overloaded — operations still succeed, but each one raises a metric
	// failure because the interface time bound cannot be honored.
	Slow
	// Down models a logical failure: operations fail outright and raise a
	// logical failure; the interface statements no longer hold at all.
	Down
	// Crashed models the paper's recoverable crash (Section 5: "crashes
	// can be mapped to metric failures if the database has some basic
	// recovery facilities and can remember messages that need to be sent
	// out upon recovery"): operations fail transiently (metric failure)
	// and notifications are buffered, then replayed in order when the
	// mode returns to Healthy.
	Crashed
)

func (m FaultMode) String() string {
	switch m {
	case Healthy:
		return "healthy"
	case Slow:
		return "slow"
	case Crashed:
		return "crashed"
	default:
		return "down"
	}
}

// Faulty wraps a CM-Translator with switchable fault injection, so tests
// and the benchmark harness can drive the Section 5 failure-handling
// machinery through the same code path real failures take.
type Faulty struct {
	failureHub
	inner cmi.Interface
	mu    sync.Mutex
	mode  FaultMode
	// held buffers notifications while Crashed, for replay on recovery.
	held []heldNote
}

type heldNote struct {
	fn       cmi.NotifyFunc
	item     data.ItemName
	old, new data.Value
}

// NewFaulty wraps inner; the wrapper starts Healthy.
func NewFaulty(inner cmi.Interface, clock vclock.Clock) *Faulty {
	return &Faulty{failureHub: newFailureHub(inner.Site(), clock), inner: inner}
}

// SetMode switches the injected behaviour.  Recovering from Crashed
// replays the notifications buffered during the outage, in order — the
// paper's "remember messages that need to be sent out upon recovery".
func (f *Faulty) SetMode(m FaultMode) {
	f.mu.Lock()
	wasCrashed := f.mode == Crashed
	f.mode = m
	var replay []heldNote
	if wasCrashed && m == Healthy {
		replay = f.held
		f.held = nil
	}
	f.mu.Unlock()
	for _, h := range replay {
		h.fn(h.item, h.old, h.new)
	}
}

// Mode returns the current mode.
func (f *Faulty) Mode() FaultMode {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.mode
}

// inject applies the current mode to an operation about to run.  It
// returns a non-nil error when the operation must not proceed.
func (f *Faulty) inject(op string) error {
	switch f.Mode() {
	case Slow:
		// The operation proceeds, late: metric failure, work still done.
		f.report(op, ris.Transient(fmt.Errorf("translator: injected overload at %s", f.inner.Site())))
		return nil
	case Crashed:
		// Recoverable crash: the caller must retry later; metric failure.
		return f.report(op, ris.Transient(fmt.Errorf("translator: injected crash at %s", f.inner.Site())))
	case Down:
		return f.report(op, fmt.Errorf("translator: injected outage at %s: %w", f.inner.Site(), ris.ErrUnavailable))
	default:
		return nil
	}
}

// Site implements cmi.Interface.
func (f *Faulty) Site() string { return f.inner.Site() }

// Statements implements cmi.Interface.
func (f *Faulty) Statements() []rule.Rule { return f.inner.Statements() }

// Read implements cmi.Interface.
func (f *Faulty) Read(item data.ItemName) (data.Value, bool, error) {
	if err := f.inject("read"); err != nil {
		return data.NullValue, false, err
	}
	return f.inner.Read(item)
}

// Write implements cmi.Interface.
func (f *Faulty) Write(item data.ItemName, v data.Value) error {
	if err := f.inject("write"); err != nil {
		return err
	}
	return f.inner.Write(item, v)
}

// Subscribe implements cmi.Interface.  Notifications keep flowing in Slow
// mode (late), are buffered for replay in Crashed mode, and are dropped
// in Down mode — the silent-failure case the paper warns about for
// notify interfaces.
func (f *Faulty) Subscribe(base string, fn cmi.NotifyFunc) (func(), error) {
	return f.inner.Subscribe(base, func(item data.ItemName, old, new data.Value) {
		switch f.Mode() {
		case Down:
			return // silently lost
		case Crashed:
			f.mu.Lock()
			f.held = append(f.held, heldNote{fn: fn, item: item, old: old, new: new})
			f.mu.Unlock()
			f.report("notify", ris.Transient(fmt.Errorf("translator: crash buffered a notification at %s", f.inner.Site())))
			return
		case Slow:
			f.report("notify", ris.Transient(fmt.Errorf("translator: injected overload at %s", f.inner.Site())))
		}
		fn(item, old, new)
	})
}

// List implements cmi.Interface.
func (f *Faulty) List(base string) ([]data.ItemName, error) {
	if err := f.inject("read"); err != nil {
		return nil, err
	}
	return f.inner.List(base)
}

// Close implements cmi.Interface.
func (f *Faulty) Close() error { return f.inner.Close() }

var _ cmi.Interface = (*Faulty)(nil)
