// Package det holds detlint fire cases: each flagged line carries a want
// expectation.
package det

import (
	"fmt"
	"math/rand"
	"time"
)

var sink int64

func wallClock() {
	t0 := time.Now() // want `time.Now reads the wall clock`
	work()
	sink += int64(time.Since(t0)) // want `time.Since reads the wall clock`
}

func globalRand() int {
	return rand.Intn(10) // want `global math/rand.Intn is not derived from Config.Seed`
}

func shuffleGlobal(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `global math/rand.Shuffle`
}

func mapRangePrint(m map[string]int) {
	for k, v := range m { // want `map iteration order can reach a statement with side effects`
		fmt.Println(k, v)
	}
}

func mapRangeAppendValue(m map[string]int, out []string) []string {
	for k, v := range m { // want `map iteration order can reach a function call on the right-hand side`
		out = append(out, fmt.Sprintf("%s=%d", k, v))
	}
	return out
}

func mapRangeFloatSum(m map[string]float64) float64 {
	var total float64
	for _, v := range m { // want `map iteration order can reach a floating-point accumulator`
		total += v
	}
	return total
}

func mapRangeLastWriter(m map[string]int) int {
	var last int
	for _, v := range m { // want `map iteration order can reach a last-writer-wins assignment`
		last = v
	}
	return last
}

func mapRangeBreak(m map[string]int) (int, bool) {
	for _, v := range m { // want `map iteration order can reach an early exit`
		if v > 0 {
			return v, true
		}
	}
	return 0, false
}

func bareGoroutine() {
	go work() // want `bare go statement outside the engine scheduler`
	ch := make(chan int)
	go func() { ch <- 1 }() // want `bare go statement outside the engine scheduler`
	<-ch
}

// The shard-worker idiom (a per-shard goroutine draining a run channel,
// as simrt's parallel windows use) still fires without a directive — the
// determinism argument lives in the annotation, not the shape.
type fakeShard struct {
	runCh  chan int64
	doneCh chan any
}

func shardWorkerUnannotated(shards []*fakeShard) {
	for _, s := range shards {
		s := s
		go func() { // want `bare go statement outside the engine scheduler`
			for end := range s.runCh {
				s.doneCh <- end
			}
		}()
	}
}

// A coalescer keyed on a destination MAP: flushing by ranging the map
// reaches the wire (an emit call) in randomised per-run order, so the
// flush sequence — and with it every trace byte — differs run to run.
// Buffers must be destination-sorted slices, as earth.Coalescer keeps
// them (see the detok mirror).
type mapCoalescer struct {
	bufs map[int][]int // dst -> buffered payload sizes
}

func (c *mapCoalescer) flushAll(emit func(dst, bytes int)) {
	for dst, ops := range c.bufs { // want `map iteration order can reach a statement with side effects`
		total := 0
		for _, b := range ops {
			total += b
		}
		emit(dst, total)
	}
}

// The rejoin-handshake idiom (a fenced executor parking on its wake
// channel until the heal timer pokes it, as livert's partition protocol
// uses) still fires without a directive — the safety argument that the
// park/wake pair orders fence before rejoin belongs in the annotation.
type fenceNode struct {
	wake   chan any
	halted bool
}

func rejoinHandshakeUnannotated(n *fenceNode, drain func()) {
	go func() { // want `bare go statement outside the engine scheduler`
		for range n.wake {
			if n.halted {
				continue
			}
			drain()
		}
	}()
}

func reasonlessDirective(m map[string]int) {
	//detlint:allow // want `directive needs a reason`
	for k := range m { // want `map iteration order`
		fmt.Println(k)
	}
}

func work() {}
