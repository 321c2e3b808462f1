// Package stats aggregates measurements across repeated runs and formats
// the speedup tables/series that the paper's figures report. The paper
// presents Gröbner results as mean, minimum and maximum speedups over 20
// test runs (Figure 4/5); Sample and Series model exactly that.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Sample is a set of repeated scalar measurements (e.g. runtimes of one
// configuration).
type Sample struct {
	xs []float64
}

// Add appends a measurement.
func (s *Sample) Add(x float64) { s.xs = append(s.xs, x) }

// N returns the number of measurements.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the arithmetic mean, or NaN when empty.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Min returns the smallest measurement, or NaN when empty.
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest measurement, or NaN when empty.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	m := s.xs[0]
	for _, x := range s.xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Spread returns Max/Min, the run-to-run variation factor the paper
// discusses ("some vary by a factor of up to 7"). NaN when empty or Min<=0.
func (s *Sample) Spread() float64 {
	min := s.Min()
	if math.IsNaN(min) || min <= 0 {
		return math.NaN()
	}
	return s.Max() / min
}

// Point is one x-position of a figure series: a node count with the
// mean/min/max statistic of the measured speedups.
type Point struct {
	Nodes int     `json:"nodes"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Runs  int     `json:"runs"`
}

// Series is a named curve in a figure: speedup (or runtime) against node
// count, with per-point spread.
type Series struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// AddSample appends a point computed from a sample of speedups at the
// given node count.
func (s *Series) AddSample(nodes int, sp *Sample) {
	s.Points = append(s.Points, Point{
		Nodes: nodes,
		Mean:  sp.Mean(),
		Min:   sp.Min(),
		Max:   sp.Max(),
		Runs:  sp.N(),
	})
}

// At returns the point for a node count, if present.
func (s *Series) At(nodes int) (Point, bool) {
	for _, p := range s.Points {
		if p.Nodes == nodes {
			return p, true
		}
	}
	return Point{}, false
}

// MaxMean returns the highest mean value across the series and the node
// count where it occurs (the "speedup of X on Y nodes" the paper quotes).
func (s *Series) MaxMean() (float64, int) {
	best, at := math.Inf(-1), 0
	for _, p := range s.Points {
		if p.Mean > best {
			best, at = p.Mean, p.Nodes
		}
	}
	return best, at
}

// Format renders the series as an aligned text table with mean [min,max]
// columns, the form the harness prints for every figure.
func Format(series ...*Series) string {
	if len(series) == 0 {
		return ""
	}
	var b strings.Builder
	// Collect the union of node counts, sorted.
	nodeSet := map[int]bool{}
	for _, s := range series {
		for _, p := range s.Points {
			nodeSet[p.Nodes] = true
		}
	}
	nodes := make([]int, 0, len(nodeSet))
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)

	fmt.Fprintf(&b, "%-6s", "nodes")
	for _, s := range series {
		fmt.Fprintf(&b, " | %-24s", s.Name)
	}
	b.WriteString("\n")
	for _, n := range nodes {
		fmt.Fprintf(&b, "%-6d", n)
		for _, s := range series {
			if p, ok := s.At(n); ok {
				if p.Runs > 1 {
					fmt.Fprintf(&b, " | %6.2f [%6.2f,%6.2f] ", p.Mean, p.Min, p.Max)
				} else {
					fmt.Fprintf(&b, " | %6.2f %17s", p.Mean, "")
				}
			} else {
				fmt.Fprintf(&b, " | %-24s", "-")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
