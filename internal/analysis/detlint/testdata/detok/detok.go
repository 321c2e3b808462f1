// Package detok holds detlint no-fire cases: every construct here is
// order-insensitive (or explicitly allowed) and must produce no
// diagnostics.
package detok

import (
	"math/rand"
	"sort"
	"time"
)

// Seeded randomness is the sanctioned pattern.
func seededRand(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(10)
}

// Using the time package for arithmetic (not reading the clock) is fine.
func duration() time.Duration { return 3 * time.Millisecond }

// The sorted-keys idiom: collect, sort, iterate the slice.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Integer accumulation is commutative: order cannot reach the result.
func countPositive(m map[string]int) (n, total int) {
	for _, v := range m {
		if v > 0 {
			n++
		}
		total += v
	}
	return n, total
}

// Building another map and deleting entries is per-key, order-free.
func invert(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m {
		out[v] = k
		delete(m, k)
	}
	return out
}

// Index-addressed writes land each key in its own slot.
func toDense(m map[int]float64, n int) []float64 {
	out := make([]float64, n)
	for i, v := range m {
		if i >= 0 && i < n {
			out[i] = v
		}
	}
	return out
}

// The max idiom: a conditioned plain assignment is commutative.
func maxValue(m map[string]int) int {
	best := 0
	for _, v := range m {
		if v > best {
			best = v
		}
	}
	return best
}

// A deliberate exception, explained: the allow directive silences the
// finding on the next line.
func allowed(m map[string]int) float64 {
	var sum float64
	//detlint:allow commutative to well below float64 ulp for these magnitudes
	for _, v := range m {
		sum += float64(v)
	}
	return sum
}

// The trailing form of the directive works too.
func allowedTrailing(m map[string]int) int {
	var last int
	for _, v := range m { //detlint:allow any surviving element is acceptable here
		last = v
	}
	return last
}

// The coalescer-buffer idiom of earth.Coalescer: per-destination buffers
// held in a destination-sorted slice (never a map), drained in ascending
// destination order — the flush sequence is a pure function of the
// program, so traces stay byte-reproducible.
type coalBuf struct {
	dst int
	ops []int
}

type sliceCoalescer struct {
	bufs []coalBuf // sorted by dst; sorted-insert keeps order canonical
}

func (c *sliceCoalescer) add(dst, bytes int) {
	i := 0
	for i < len(c.bufs) && c.bufs[i].dst < dst {
		i++
	}
	if i == len(c.bufs) || c.bufs[i].dst != dst {
		c.bufs = append(c.bufs, coalBuf{})
		copy(c.bufs[i+1:], c.bufs[i:])
		c.bufs[i] = coalBuf{dst: dst}
	}
	c.bufs[i].ops = append(c.bufs[i].ops, bytes)
}

func (c *sliceCoalescer) flushAll(emit func(dst, bytes int)) {
	for _, b := range c.bufs { // ascending dst: deterministic flush order
		total := 0
		for _, n := range b.ops {
			total += n
		}
		emit(b.dst, total)
	}
	c.bufs = c.bufs[:0]
}

// The shard-worker idiom: per-shard goroutines that synchronise only at
// window barriers (simrt's conservative parallel simulation) are a
// sanctioned, annotated exception to the bare-go rule.
type shard struct {
	runCh  chan int64
	doneCh chan any
}

func shardWorkers(shards []*shard) (stop func()) {
	for _, s := range shards[1:] {
		s := s
		//detlint:allow shard workers synchronise exclusively at window barriers; results are byte-identical for every shard count
		go func() {
			for end := range s.runCh {
				s.doneCh <- end
			}
		}()
	}
	return func() {
		for _, s := range shards[1:] {
			close(s.runCh)
		}
	}
}

// The rejoin-handshake idiom: a partitioned node's executor parks on its
// wake channel after self-fencing and the heal timer pokes it back to
// life at the bumped epoch. The executor goroutine is annotated — the
// park/wake pair totally orders self-fence before rejoin, and a parked
// executor produces no output to reorder.
type rejoinNode struct {
	wake   chan any
	halted bool
	epoch  uint64
}

func rejoinHandshake(n *rejoinNode, drain func()) (heal func()) {
	//detlint:allow the park/wake handshake totally orders self-fence before rejoin; a parked executor emits nothing
	go func() {
		for range n.wake {
			if n.halted {
				continue // still fenced: park again until the heal poke
			}
			drain()
		}
	}()
	return func() {
		n.halted = false
		n.epoch++
		n.wake <- nil
	}
}
