package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"strings"

	"earth/internal/sim"
)

// histBuckets is the number of power-of-two buckets a Histogram keeps:
// bucket 0 holds values <= 0, bucket i (i >= 1) holds [2^(i-1), 2^i).
// 64 buckets cover the full non-negative int64 range.
const histBuckets = 65

// Histogram is a fixed-size log2-bucketed histogram of non-negative
// int64 values (nanoseconds or bytes). The zero value is ready to use;
// it is not safe for concurrent use (Metrics serialises access).
type Histogram struct {
	Name string // metric name, e.g. "thread run"
	Unit string // "ns" (rendered in time units) or "bytes"

	counts [histBuckets]uint64
	n      uint64
	sum    int64
	min    int64
	max    int64
}

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// bucketLow returns the inclusive lower bound of bucket i, saturating at
// MaxInt64: bucket 64's nominal bound 2^63 overflows int64 and would
// otherwise render (and midpoint-compute) as a negative number.
func bucketLow(i int) int64 {
	if i == 0 {
		return 0
	}
	if i >= 64 {
		return math.MaxInt64
	}
	return int64(1) << (i - 1)
}

// Add records one value.
func (h *Histogram) Add(v int64) {
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
	h.counts[bucketOf(v)]++
}

// N returns the number of recorded values.
func (h *Histogram) N() uint64 { return h.n }

// Sum returns the sum of recorded values.
func (h *Histogram) Sum() int64 { return h.sum }

// Mean returns the arithmetic mean, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Quantile returns an approximation of the q-quantile (q in [0,1]) using
// the geometric midpoint of the bucket the quantile falls in, clamped to
// the observed extremes.
func (h *Histogram) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if rank >= h.n {
		rank = h.n - 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen > rank {
			if i == 0 {
				return clamp64(0, h.min, h.max)
			}
			lo, hi := bucketLow(i), bucketLow(i+1)
			midf := math.Sqrt(float64(lo) * float64(hi))
			mid := int64(math.MaxInt64)
			if midf < math.MaxInt64 {
				mid = int64(midf)
			}
			return clamp64(mid, h.min, h.max)
		}
	}
	return h.max
}

func clamp64(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// formatValue renders a value in the histogram's unit.
func (h *Histogram) formatValue(v int64) string {
	if h.Unit == "bytes" {
		return fmt.Sprintf("%dB", v)
	}
	return sim.Time(v).String()
}

// Render draws the histogram as a header line plus one bar per occupied
// bucket range, normalised to the largest bucket.
func (h *Histogram) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s n=%-7d mean=%-10s p50=%-10s p90=%-10s p99=%-10s max=%s\n",
		h.Name, h.n, h.formatValue(int64(h.Mean())),
		h.formatValue(h.Quantile(0.50)), h.formatValue(h.Quantile(0.90)),
		h.formatValue(h.Quantile(0.99)), h.formatValue(h.max))
	if h.n == 0 {
		return b.String()
	}
	lo, hi := -1, -1
	var peak uint64
	for i, c := range h.counts {
		if c > 0 {
			if lo < 0 {
				lo = i
			}
			hi = i
			if c > peak {
				peak = c
			}
		}
	}
	const barWidth = 40
	for i := lo; i <= hi; i++ {
		c := h.counts[i]
		fill := int(c * barWidth / peak)
		fmt.Fprintf(&b, "  %10s..%-10s %7d |%s\n",
			h.formatValue(bucketLow(i)), h.formatValue(bucketLow(i+1)), c,
			strings.Repeat("#", fill))
	}
	return b.String()
}

// MarshalJSON exports the summary statistics and occupied buckets.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	type bucket struct {
		Low   int64  `json:"low"`
		Count uint64 `json:"count"`
	}
	var bs []bucket
	for i, c := range h.counts {
		if c > 0 {
			bs = append(bs, bucket{Low: bucketLow(i), Count: c})
		}
	}
	return json.Marshal(struct {
		Name    string   `json:"name"`
		Unit    string   `json:"unit"`
		N       uint64   `json:"n"`
		Mean    float64  `json:"mean"`
		Min     int64    `json:"min"`
		Max     int64    `json:"max"`
		P50     int64    `json:"p50"`
		P90     int64    `json:"p90"`
		P99     int64    `json:"p99"`
		Buckets []bucket `json:"buckets,omitempty"`
	}{h.Name, h.Unit, h.n, h.Mean(), h.min, h.max,
		h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), bs})
}
