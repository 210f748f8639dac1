// Package workload generates deterministic update streams for the
// benchmark harness: keyed updates with uniform or Zipf key popularity,
// regular or Poisson arrivals, and tunable duplicate-value fractions (for
// the cached-propagation ablation).
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Keys returns n employee-style keys e1..en.
func Keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("e%d", i+1)
	}
	return out
}

// Update is one application write.
type Update struct {
	At    time.Duration // offset from stream start
	Key   string
	Value int64
}

// Config tunes a stream.
type Config struct {
	Seed int64
	Keys []string
	// N is the number of updates.
	N int
	// MeanGap is the mean interarrival time.
	MeanGap time.Duration
	// Poisson selects exponential interarrivals; false means regular.
	Poisson bool
	// Zipf skews key popularity (s=1.2); false means uniform.
	Zipf bool
	// DupFraction in [0,1] is the probability an update repeats the key's
	// current value instead of changing it.
	DupFraction float64
}

// Stream generates the configured update sequence.  The same Config
// always yields the same stream.
func Stream(cfg Config) []Update {
	if cfg.N <= 0 || len(cfg.Keys) == 0 {
		return nil
	}
	if cfg.MeanGap <= 0 {
		cfg.MeanGap = time.Second
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var zipf *rand.Zipf
	if cfg.Zipf && len(cfg.Keys) > 1 {
		zipf = rand.NewZipf(rng, 1.2, 1, uint64(len(cfg.Keys)-1))
	}
	current := map[string]int64{}
	next := int64(1000)
	at := time.Duration(0)
	out := make([]Update, 0, cfg.N)
	for i := 0; i < cfg.N; i++ {
		if cfg.Poisson {
			at += time.Duration(rng.ExpFloat64() * float64(cfg.MeanGap))
		} else {
			at += cfg.MeanGap
		}
		var key string
		if zipf != nil {
			key = cfg.Keys[zipf.Uint64()]
		} else {
			key = cfg.Keys[rng.Intn(len(cfg.Keys))]
		}
		var val int64
		if cur, ok := current[key]; ok && rng.Float64() < cfg.DupFraction {
			val = cur
		} else {
			next++
			val = next
		}
		current[key] = val
		out = append(out, Update{At: at, Key: key, Value: val})
	}
	return out
}

// Mean returns the arithmetic mean of ds.
func Mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// Max returns the maximum of ds.
func Max(ds []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		if d > m {
			m = d
		}
	}
	return m
}

// Percentile returns the p-th percentile (0..100) of ds.
func Percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration{}, ds...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
