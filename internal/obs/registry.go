package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind classifies a metric family.
type Kind int

// Metric family kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Registry holds metric families.  All methods are safe for concurrent
// use; the instrument handles it hands out update with single atomic
// operations and are the intended hot path.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{fams: map[string]*family{}} }

// Default is the process-wide registry.  Components fall back to it when
// their options carry no explicit registry, so one scrape covers a whole
// deployment without any plumbing.
var Default = NewRegistry()

// family is one named metric with a fixed label-key schema.
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64 // histogram upper bounds, ascending, no +Inf

	mu     sync.RWMutex
	series map[string]*series
}

// series is one label combination's cell.
type series struct {
	labelVals []string

	// counter: val counts.  gauge: val holds an int64 bit pattern.
	val atomic.Uint64

	// histogram state; counts[i] observes v <= buckets[i].
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// seriesKey joins label values into a map key.  \xff cannot appear in
// UTF-8 label values, so the join is unambiguous.
func seriesKey(vals []string) string { return strings.Join(vals, "\xff") }

// register finds or creates a family, enforcing schema consistency: a
// second registration of the same name must agree on kind, label keys,
// and buckets.  Mismatch panics — it is a programming error on the order
// of redeclaring a type.
func (r *Registry) register(name, help string, kind Kind, buckets []float64, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s (was %s)", name, kind, f.kind))
		}
		if len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered with labels %v (was %v)", name, labels, f.labels))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obs: metric %s re-registered with labels %v (was %v)", name, labels, f.labels))
			}
		}
		if kind == KindHistogram && len(f.buckets) != len(buckets) {
			panic(fmt.Sprintf("obs: histogram %s re-registered with %d buckets (was %d)", name, len(buckets), len(f.buckets)))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labels: labels, buckets: buckets, series: map[string]*series{}}
	r.fams[name] = f
	return f
}

// with finds or creates the series cell for a label-value combination.
func (f *family) with(vals []string) *series {
	if len(vals) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(vals)))
	}
	key := seriesKey(vals)
	f.mu.RLock()
	s := f.series[key]
	f.mu.RUnlock()
	if s != nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s = f.series[key]; s != nil {
		return s
	}
	s = &series{labelVals: append([]string(nil), vals...)}
	if f.kind == KindHistogram {
		s.counts = make([]atomic.Uint64, len(f.buckets))
	}
	f.series[key] = s
	return s
}

// snapshotSeries returns the family's series sorted by label values, for
// deterministic exposition.
func (f *family) snapshotSeries() []*series {
	f.mu.RLock()
	out := make([]*series, 0, len(f.series))
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out = append(out, f.series[k])
	}
	f.mu.RUnlock()
	return out
}

// ---- counters ----

// CounterVec is a counter family; With resolves one label combination to
// its Counter cell.
type CounterVec struct{ f *family }

// Counter registers (or finds) a counter family.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, KindCounter, nil, labels)}
}

// With returns the counter cell for the given label values.  Callers on
// hot paths should acquire the cell once and keep it.
func (v *CounterVec) With(values ...string) *Counter { return (*Counter)(v.f.with(values)) }

// Counter is a monotone event count.
type Counter series

// Inc adds one.
func (c *Counter) Inc() { c.val.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.val.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.val.Load() }

// ---- gauges ----

// GaugeVec is a gauge family.
type GaugeVec struct{ f *family }

// Gauge registers (or finds) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, KindGauge, nil, labels)}
}

// With returns the gauge cell for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge { return (*Gauge)(v.f.with(values)) }

// Gauge is an instantaneous integer level.
type Gauge series

// Set stores n.
func (g *Gauge) Set(n int64) { g.val.Store(uint64(n)) }

// ---- histograms ----

// HistogramVec is a histogram family with fixed bucket bounds.
type HistogramVec struct{ f *family }

// DefBuckets are latency-oriented default bounds in seconds, spanning
// sub-millisecond engine hops to multi-second retry backoffs.
var DefBuckets = []float64{.0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30}

// Histogram registers (or finds) a histogram family.  buckets are the
// ascending upper bounds (an implicit +Inf bucket is always present); nil
// means DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefBuckets
	}
	bs := append([]float64(nil), buckets...)
	for i := 1; i < len(bs); i++ {
		if bs[i] <= bs[i-1] {
			panic(fmt.Sprintf("obs: histogram %s buckets not strictly ascending: %v", name, bs))
		}
	}
	return &HistogramVec{r.register(name, help, KindHistogram, bs, labels)}
}

// With returns the histogram cell for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return &Histogram{s: v.f.with(values), buckets: v.f.buckets}
}

// Histogram records observations into fixed buckets.
type Histogram struct {
	s       *series
	buckets []float64
}

// Observe records one value: three atomic adds (bucket, count, sum) and a
// binary search — no locks, no allocation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.buckets, v)
	if i < len(h.buckets) {
		h.s.counts[i].Add(1)
	}
	h.s.count.Add(1)
	for {
		old := h.s.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.s.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}
