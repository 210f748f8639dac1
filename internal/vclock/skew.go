package vclock

import (
	"sync"
	"time"
)

// Skewed wraps a Clock and offsets every Now reading by an adjustable
// amount, modelling a site whose local clock has drifted from the rest of
// the deployment.  Timers are unaffected: AfterFunc durations are
// relative, and a skewed site's hardware still ticks at the right rate —
// only its notion of "what time is it" is wrong.  That is exactly the
// fault mode that matters for the paper's metric guarantees: timestamps a
// skewed shell records into the trace shift by the offset, so a
// MetricFollows/MetricLeads bound of κ seconds observably fails once the
// skew eats the slack and recovers when the site re-syncs.
//
// SetOffset may be called at any time (e.g. mid-campaign from
// internal/chaos); readings are monotone per call site only insofar as the
// underlying clock is, so tests asserting exact verdicts should change the
// offset at quiescent points.
type Skewed struct {
	inner Clock
	mu    sync.Mutex
	off   time.Duration
}

// NewSkewed wraps inner with an initial offset.
func NewSkewed(inner Clock, offset time.Duration) *Skewed {
	if inner == nil {
		inner = Real{}
	}
	return &Skewed{inner: inner, off: offset}
}

// Now implements Clock: the inner clock's reading plus the current offset.
func (s *Skewed) Now() time.Time {
	s.mu.Lock()
	off := s.off
	s.mu.Unlock()
	return s.inner.Now().Add(off)
}

// AfterFunc implements Clock by delegating to the inner clock: relative
// delays are not affected by absolute skew.
func (s *Skewed) AfterFunc(d time.Duration, f func()) Timer {
	return s.inner.AfterFunc(d, f)
}

// SetOffset replaces the skew applied to Now readings.
func (s *Skewed) SetOffset(d time.Duration) {
	s.mu.Lock()
	s.off = d
	s.mu.Unlock()
}

// Resync zeroes the offset, modelling an NTP step back to true time.
func (s *Skewed) Resync() { s.SetOffset(0) }

var _ Clock = (*Skewed)(nil)
