package enginetest

import (
	"fmt"
	"runtime"
	"time"

	"earth/internal/earth"
)

// Checked wraps an engine so that every Run ends with the leak check: the
// goroutine count is back to what it was before the Run (executors and
// timer callbacks are given two seconds to finish returning), and an engine
// that can say what a finished Run left behind — livert's Quiescent:
// outstanding work, executor reserves, private batches, queues, armed
// timers — says nothing. A leak is an engine bug, and the engine tables
// build their runtimes where no testing.T is in reach, so Run panics with
// what it found.
func Checked(rt earth.Runtime) earth.Runtime { return checked{rt} }

type checked struct{ earth.Runtime }

func (c checked) Run(main earth.ThreadBody) *earth.Stats {
	before := runtime.NumGoroutine()
	st := c.Runtime.Run(main)
	if q, ok := c.Runtime.(interface{ Quiescent() error }); ok {
		if err := q.Quiescent(); err != nil {
			panic(err)
		}
	}
	after := runtime.NumGoroutine()
	for wait := time.Now(); after > before && time.Since(wait) < 2*time.Second; after = runtime.NumGoroutine() {
		time.Sleep(100 * time.Microsecond)
	}
	if after > before {
		panic(fmt.Sprintf("enginetest: %d goroutines before Run, %d two seconds after it", before, after))
	}
	return st
}
