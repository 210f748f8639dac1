package obs

import (
	"bufio"
	"math"
	"sort"
	"strconv"
	"strings"
)

// QuantileFromBuckets estimates the q-th quantile (0 < q <= 1) of a
// histogram's observations by linear interpolation inside the owning
// bucket, the same estimator as PromQL's histogram_quantile.  The bucket
// data comes from a registry's exposition text or a remote shell's
// /metrics, through ParseHistogram.  bounds are ascending finite upper
// bounds and cumulative the counts at each bound; total is the overall
// observation count including the +Inf bucket.  Observations beyond the
// last finite bound clamp to that bound; an empty histogram returns NaN.
func QuantileFromBuckets(bounds []float64, cumulative []uint64, total uint64, q float64) float64 {
	if total == 0 || len(bounds) == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q <= 0 {
		q = 1e-9
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	idx := sort.Search(len(bounds), func(i int) bool {
		return float64(cumulative[i]) >= rank
	})
	if idx == len(bounds) {
		// The quantile lands in the +Inf bucket: all we can say is "beyond
		// the last finite bound"; clamp, as histogram_quantile does.
		return bounds[len(bounds)-1]
	}
	lo, loCount := 0.0, 0.0
	if idx > 0 {
		lo, loCount = bounds[idx-1], float64(cumulative[idx-1])
	}
	hi, hiCount := bounds[idx], float64(cumulative[idx])
	if hiCount == loCount {
		return hi
	}
	return lo + (hi-lo)*(rank-loCount)/(hiCount-loCount)
}

// ParseHistogram extracts one histogram family from Prometheus 0.0.4 text
// exposition (the format Handler serves), aggregating across every label
// combination of that family.  It returns ascending finite bounds with
// cumulative counts, the total count and sum, and ok=false when the family
// does not appear.  This is how E15 reads trigger-to-execution latency, and
// it works unchanged on a scrape of a live cmshell's /metrics endpoint.
func ParseHistogram(text, name string) (bounds []float64, cumulative []uint64, count uint64, sum float64, ok bool) {
	byBound := map[float64]uint64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		metric, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			continue
		}
		base := metric
		if i := strings.IndexByte(metric, '{'); i >= 0 {
			base = metric[:i]
		}
		switch base {
		case name + "_bucket":
			le, found := labelValue(metric, "le")
			if !found {
				continue
			}
			if le == "+Inf" {
				continue // recovered from _count
			}
			b, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			byBound[b] += uint64(val)
			ok = true
		case name + "_count":
			count += uint64(val)
			ok = true
		case name + "_sum":
			sum += val
			ok = true
		}
	}
	if !ok {
		return nil, nil, 0, 0, false
	}
	bounds = make([]float64, 0, len(byBound))
	for b := range byBound {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	cumulative = make([]uint64, len(bounds))
	for i, b := range bounds {
		cumulative[i] = byBound[b]
	}
	return bounds, cumulative, count, sum, true
}

// labelValue pulls one label's (unescaped) value out of a series name like
// name{a="x",le="0.5"}.
func labelValue(metric, key string) (string, bool) {
	i := strings.IndexByte(metric, '{')
	if i < 0 {
		return "", false
	}
	rest := metric[i+1:]
	needle := key + `="`
	for {
		j := strings.Index(rest, needle)
		if j < 0 {
			return "", false
		}
		// Must start a label: preceded by '{' start or ','.
		if j > 0 && rest[j-1] != ',' {
			rest = rest[j+len(needle):]
			continue
		}
		v := rest[j+len(needle):]
		var b strings.Builder
		for k := 0; k < len(v); k++ {
			c := v[k]
			if c == '\\' && k+1 < len(v) {
				k++
				switch v[k] {
				case 'n':
					b.WriteByte('\n')
				default:
					b.WriteByte(v[k])
				}
				continue
			}
			if c == '"' {
				return b.String(), true
			}
			b.WriteByte(c)
		}
		return "", false
	}
}
