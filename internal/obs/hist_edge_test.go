package obs

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestHistogramSingleSample: with one value every quantile must collapse
// to that value and the render must show exactly one bar.
func TestHistogramSingleSample(t *testing.T) {
	h := Histogram{Name: "one", Unit: "ns"}
	h.Add(777)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 777 {
			t.Errorf("Quantile(%g) = %d, want 777", q, got)
		}
	}
	if h.Mean() != 777 || h.min != 777 || h.max != 777 {
		t.Errorf("mean=%g min=%d max=%d", h.Mean(), h.min, h.max)
	}
	if bars := strings.Count(h.Render(), "|"); bars != 1 {
		t.Errorf("single-sample render has %d bars:\n%s", bars, h.Render())
	}
}

// TestHistogramZeroWidthBucket: values that are all <= 0 land in the
// zero-width bucket 0; quantiles clamp to the observed extremes instead
// of inventing a midpoint.
func TestHistogramZeroWidthBucket(t *testing.T) {
	h := Histogram{Name: "z", Unit: "ns"}
	for _, v := range []int64{0, 0, -5, -1} {
		h.Add(v)
	}
	if got := h.Quantile(0.5); got < -5 || got > 0 {
		t.Errorf("Quantile(0.5) = %d outside [-5, 0]", got)
	}
	if h.min != -5 || h.max != 0 {
		t.Errorf("min=%d max=%d", h.min, h.max)
	}
}

// TestHistogramOverflowBucket: MaxInt64 lands in the top bucket whose
// nominal upper bound 2^63 overflows int64. Quantiles, render and JSON
// must stay in non-negative range.
func TestHistogramOverflowBucket(t *testing.T) {
	h := Histogram{Name: "big", Unit: "ns"}
	h.Add(1)
	h.Add(math.MaxInt64)
	h.Add(math.MaxInt64)
	h.Add(math.MaxInt64)
	// p90 falls in the top bucket: its geometric midpoint must be a huge
	// positive value, not a negative-overflow artefact clamped to min.
	if got := h.Quantile(0.9); got < 1<<62 {
		t.Errorf("Quantile(0.9) = %d, want >= 2^62", got)
	}
	if got := h.Quantile(1); got < 1<<62 || got > math.MaxInt64 {
		t.Errorf("Quantile(1) = %d, want top-bucket midpoint", got)
	}
	out := h.Render()
	if strings.Contains(out, "-9223372036854775808") {
		t.Errorf("render leaks overflowed bucket bound:\n%s", out)
	}
	b, err := json.MarshalIndent(&h, "", " ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if strings.Contains(string(b), "-9223372036854775808") {
		t.Errorf("JSON leaks overflowed bucket bound:\n%s", b)
	}
	if bucketLow(64) != math.MaxInt64 {
		t.Errorf("bucketLow(64) = %d, want saturation at MaxInt64", bucketLow(64))
	}
}
