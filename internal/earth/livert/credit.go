package livert

import "sync/atomic"

// creditChunk is how many units of outstanding work an executor moves
// from the shared counter to its reserve at once. It only has to make the
// shared counter's traffic small next to the per-item queue lock: at 64 a
// body that issues work writes the counter once per 64 items, and a larger
// chunk measures the same.
const creditChunk = 64

// credit is one executor's private reserve of outstanding-work units (see
// the package comment, "Termination by credit"). Only its executor touches
// it; total is Runtime.outstanding.
type credit struct {
	reserve int64
}

// take removes one unit from the reserve for an item about to be queued,
// refilling the reserve from total when it is empty. The caller attaches
// the unit — calls take — before the item becomes visible in any queue.
func (c *credit) take(total *atomic.Int64) {
	if c.reserve == 0 {
		total.Add(creditChunk)
		c.reserve = creditChunk
	}
	c.reserve--
}

// give returns the unit of an item that finished on this executor.
func (c *credit) give() { c.reserve++ }

// settle returns the whole reserve to total and reports whether that took
// total to zero: nothing is queued, pooled, running or held by a timer and
// every other reserve is empty, so the run is complete. An empty reserve
// holds nothing that could be the last unit and never reports zero.
func (c *credit) settle(total *atomic.Int64) bool {
	r := c.reserve
	if r == 0 {
		return false
	}
	c.reserve = 0
	return total.Add(-r) == 0
}
