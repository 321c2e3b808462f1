package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func sample(xs ...float64) *Sample {
	s := &Sample{}
	for _, x := range xs {
		s.Add(x)
	}
	return s
}

func TestEmptySampleIsNaN(t *testing.T) {
	s := &Sample{}
	for name, v := range map[string]float64{
		"Mean": s.Mean(), "Min": s.Min(), "Max": s.Max(), "Spread": s.Spread(),
	} {
		if !math.IsNaN(v) {
			t.Errorf("%s of empty sample = %v, want NaN", name, v)
		}
	}
}

func TestSampleStatistics(t *testing.T) {
	s := sample(2, 4, 4, 4, 5, 5, 7, 9)
	if got := s.Mean(); got != 5 {
		t.Errorf("Mean = %v", got)
	}
	if got := s.Min(); got != 2 {
		t.Errorf("Min = %v", got)
	}
	if got := s.Max(); got != 9 {
		t.Errorf("Max = %v", got)
	}
	if got := s.Spread(); got != 4.5 {
		t.Errorf("Spread = %v", got)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
}

func TestStatisticsBoundsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := sample(xs...)
		return s.Min() <= s.Mean()+1e-6 && s.Mean() <= s.Max()+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "Lazard"
	s.AddSample(2, sample(1.9, 2.1, 2.0))
	s.AddSample(8, sample(6.5, 7.5))
	s.AddSample(11, sample(9.0))
	p, ok := s.At(8)
	if !ok || p.Mean != 7 || p.Min != 6.5 || p.Max != 7.5 || p.Runs != 2 {
		t.Fatalf("At(8) = %+v, %v", p, ok)
	}
	if _, ok := s.At(99); ok {
		t.Fatal("At(99) found a phantom point")
	}
	best, at := s.MaxMean()
	if best != 9 || at != 11 {
		t.Fatalf("MaxMean = %v @ %d", best, at)
	}
}

func TestFormat(t *testing.T) {
	a := &Series{Name: "EARTH"}
	a.AddSample(2, sample(1.8, 2.0))
	a.AddSample(4, sample(3.9))
	b := &Series{Name: "MP-300us"}
	b.AddSample(2, sample(1.2, 1.4))
	out := Format(a, b)
	for _, want := range []string{"nodes", "EARTH", "MP-300us", "1.90", "3.90", "1.30"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Missing point renders as "-".
	if !strings.Contains(out, "-") {
		t.Error("missing point not rendered")
	}
	if Format() != "" {
		t.Error("Format() of nothing should be empty")
	}
}

func TestSpreadGuardsNonPositiveMin(t *testing.T) {
	if !math.IsNaN(sample(-1, 5).Spread()) {
		t.Error("Spread with min<=0 must be NaN")
	}
}
