package harness

import (
	"fmt"
	"slices"
	"testing"
)

// TestGridCoordinates: on a 3-axis grid every cell sees its own
// coordinates, At addresses them back, flat order is row-major, Sub
// slices a coordinate prefix without copying, and the result does not
// depend on the worker count.
func TestGridCoordinates(t *testing.T) {
	dims := []int{2, 3, 4}
	label := func(at []int) string { return fmt.Sprint(at) }
	g := Sweep(1, dims, label)
	if len(g.All()) != 24 {
		t.Fatalf("cells = %d, want 24", len(g.All()))
	}
	i := 0
	for a := 0; a < 2; a++ {
		for b := 0; b < 3; b++ {
			for c := 0; c < 4; c++ {
				want := label([]int{a, b, c})
				if got := g.At(a, b, c); got != want {
					t.Errorf("At(%d,%d,%d) = %s", a, b, c, got)
				}
				if got := g.All()[i]; got != want {
					t.Errorf("flat cell %d = %s, want %s (row-major)", i, got, want)
				}
				if got := g.coords(i); !slices.Equal(got, []int{a, b, c}) {
					t.Errorf("coords(%d) = %v", i, got)
				}
				i++
			}
		}
	}
	if got, want := g.Sub(1, 2).All(), []string{"[1 2 0]", "[1 2 1]", "[1 2 2]", "[1 2 3]"}; !slices.Equal(got, want) {
		t.Errorf("Sub(1,2) = %v, want %v", got, want)
	}
	if got := g.Sub(1).At(2, 3); got != "[1 2 3]" {
		t.Errorf("Sub(1).At(2,3) = %s", got)
	}
	if got := g.Sub().All(); !slices.Equal(got, g.All()) {
		t.Errorf("Sub() is not the whole grid")
	}
	if pooled := Sweep(4, dims, label); !slices.Equal(pooled.All(), g.All()) {
		t.Errorf("Workers=4 diverges from Workers=1:\n%v\nvs\n%v", pooled.All(), g.All())
	}
}

// TestGridBadCoordinatesPanic: a wrong coordinate count or an
// out-of-range coordinate is a bug in the experiment, not a wrapped
// index into a neighbouring row.
func TestGridBadCoordinatesPanic(t *testing.T) {
	g := Sweep(1, []int{2, 3}, func(at []int) int { return 0 })
	for name, f := range map[string]func(){
		"too few":      func() { g.At(1) },
		"too many":     func() { g.Sub(1, 2, 0) },
		"out of range": func() { g.At(0, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// TestSweepReraisesCellPanic: a panicking cell surfaces on the caller's
// goroutine, serial or pooled, instead of killing the process from a
// worker.
func TestSweepReraisesCellPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if p := recover(); p != "cell 5" {
					t.Errorf("workers=%d: recovered %v, want the cell's panic", workers, p)
				}
			}()
			Sweep(workers, []int{2, 4}, func(at []int) int {
				if at[0] == 1 && at[1] == 1 {
					panic("cell 5")
				}
				return 0
			})
			t.Errorf("workers=%d: Sweep returned", workers)
		}()
	}
}
