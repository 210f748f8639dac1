package workload

import (
	"math/rand"
	"time"
)

// Schedule is an open-loop arrival plan at a fixed rate.  Where Stream
// describes a stream by interarrival gaps, Schedule is meant for open-loop
// drivers (E15) that fire at the planned instants whether or not earlier
// updates have completed — the arrival process never slows down for the
// system, so overload is reachable.
type Schedule struct {
	Rate     float64 // updates per second
	Duration time.Duration
}

// Constant is a schedule at a fixed rate for d.
func Constant(rate float64, d time.Duration) Schedule {
	return Schedule{Rate: rate, Duration: d}
}

// Arrivals returns the deterministic open-loop arrival offsets: one
// reciprocal-rate gap apart, the first one gap after the schedule origin.
// Rate r over duration d therefore gives exactly floor(r·d/1s) arrivals,
// which keeps campaign assertions exact.  A rate <= 0 plans none.
func (s Schedule) Arrivals() []time.Duration {
	if s.Rate <= 0 {
		return nil
	}
	gap := time.Duration(float64(time.Second) / s.Rate)
	if gap <= 0 {
		gap = time.Nanosecond
	}
	var out []time.Duration
	for at := gap; at <= s.Duration; at += gap {
		out = append(out, at)
	}
	return out
}

// TimedUpdate is one open-loop update with its propagation deadline: the
// driver fires it at At and expects the mesh to have executed the
// resulting constraint actions by At+Deadline.
type TimedUpdate struct {
	Update
	Deadline time.Duration
}

// Updates maps the schedule's arrivals onto keyed updates.  Keys are
// chosen by a seeded PRNG (uniform) and every update writes a fresh
// value, so each one forces real constraint propagation.  deadline is
// attached verbatim to every update.
func (s Schedule) Updates(keys []string, seed int64, deadline time.Duration) []TimedUpdate {
	arrivals := s.Arrivals()
	if len(keys) == 0 || len(arrivals) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	next := int64(5000)
	out := make([]TimedUpdate, 0, len(arrivals))
	for _, at := range arrivals {
		next++
		out = append(out, TimedUpdate{
			Update:   Update{At: at, Key: keys[rng.Intn(len(keys))], Value: next},
			Deadline: deadline,
		})
	}
	return out
}
