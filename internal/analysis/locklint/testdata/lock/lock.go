// Package lock exercises locklint: blocking operations under a held
// sync.Mutex fire; shrunken critical sections, select-with-default polls
// and Cond.Wait stay silent.
package lock

import (
	"sync"
	"time"
)

type engineish struct{}

func (e *engineish) Step() bool { return false }

// Engine mirrors sim.Engine for the engine-step check.
type Engine struct{}

func (e *Engine) Step() bool                { return false }
func (e *Engine) RunBefore(end int64) int64 { return 0 }

type node struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	wake chan struct{}
	eng  *Engine
	wg   sync.WaitGroup
	cond *sync.Cond
	q    []int
}

func (n *node) sendUnderLock(v int) {
	n.mu.Lock()
	n.q = append(n.q, v)
	n.wake <- struct{}{} // want `channel send while n.mu is held`
	n.mu.Unlock()
}

func (n *node) recvUnderDeferredLock() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return <-n.wake1() // want `channel receive while n.mu is held`
}

func (n *node) wake1() chan int { return nil }

func (n *node) selectUnderLock() {
	n.mu.Lock()
	defer n.mu.Unlock()
	select { // want `select without default while n.mu is held`
	case <-n.wake:
	case n.wake <- struct{}{}:
	}
}

func (n *node) waitUnderRLock() {
	n.rw.RLock()
	n.wg.Wait() // want `WaitGroup.Wait while n.rw is held`
	n.rw.RUnlock()
}

func (n *node) sleepUnderLock() {
	n.mu.Lock()
	time.Sleep(time.Millisecond) // want `time.Sleep while n.mu is held`
	n.mu.Unlock()
}

func (n *node) stepUnderLock() {
	n.mu.Lock()
	for n.eng.Step() { // want `engine Step while n.mu is held`
	}
	n.eng.RunBefore(10) // want `engine RunBefore while n.mu is held`
	n.mu.Unlock()
}

func (n *node) blockInBranch(ready bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ready {
		n.wake <- struct{}{} // want `channel send while n.mu is held`
	}
}

// Coalescer mirrors earth.Coalescer: Add (when a batch trips), FlushTo
// and Drain ship through the engine's send path (node locks, wakeup pokes).
type Coalescer[Op any] struct{ bufs []Op }

// Shipper mirrors earth.Shipper, the engine's ship step.
type Shipper[Op any] interface {
	Ship(dst int, ops []Op, bytes int)
}

func (co *Coalescer[Op]) Add(s Shipper[Op], dst int, op Op, nbytes int) {}
func (co *Coalescer[Op]) FlushTo(s Shipper[Op], dst int)                {}
func (co *Coalescer[Op]) Drain(s Shipper[Op])                           {}
func (co *Coalescer[Op]) Len() int                                      { return len(co.bufs) }

// ctx mirrors the engines' per-body context, the coalescer's shipper.
type ctx struct{ coal Coalescer[int] }

func (c *ctx) Ship(dst int, ops []int, bytes int) {}

func (n *node) flushUnderLock(c *ctx) {
	n.mu.Lock()
	c.coal.Drain(c) // want `coalescer Drain while n.mu is held`
	n.mu.Unlock()
}

func (n *node) batchAddUnderDeferredLock(c *ctx, dst int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	c.coal.Add(c, dst, 1, 8) // want `coalescer Add while n.mu is held`
}

func (n *node) flushToUnderRLock(c *ctx, dst int) {
	n.rw.RLock()
	defer n.rw.RUnlock()
	c.coal.FlushTo(c, dst) // want `coalescer FlushTo while n.rw is held`
}

// lnode mirrors livert's node: settling its reserve may end the run, and
// retiring hands its queues and private batch off through the push path —
// node locks, its own included.
type lnode struct{ mu sync.Mutex }

func (n *lnode) settle() {}
func (n *lnode) retire() {}
func (n *lnode) next()   {}

func (n *lnode) settleUnderLock() {
	n.mu.Lock()
	n.settle() // want `executor settle while n.mu is held`
	n.mu.Unlock()
}

func (n *lnode) retireUnderDeferredLock(v *lnode) {
	v.mu.Lock()
	defer v.mu.Unlock()
	n.retire() // want `executor retire while v.mu is held`
}

// --- no-fire cases ------------------------------------------------------

// settleAfterUnlock: the executor's own order — dequeue under the lock,
// settle with none held; other methods of the node are not flagged.
func (n *lnode) settleAfterUnlock() {
	n.mu.Lock()
	n.next()
	n.mu.Unlock()
	n.settle()
}

// flushAfterUnlock drains the batch once the critical section is closed:
// the canonical fix for the coalescer cases above.
func (n *node) flushAfterUnlock(c *ctx, v int) {
	n.mu.Lock()
	n.q = append(n.q, v)
	n.mu.Unlock()
	c.coal.Drain(c)
}

// notTheCoalescer: the flush names only match on the Coalescer type, and
// its other methods are not flushes.
type otherBuf struct{}

func (otherBuf) Drain(s Shipper[int]) {}
func (otherBuf) Add(d int)            {}

func (n *node) notTheCoalescer(c *ctx, o otherBuf, wg *sync.WaitGroup) {
	n.mu.Lock()
	defer n.mu.Unlock()
	o.Drain(c)
	o.Add(1)
	wg.Add(1)
	_ = c.coal.Len()
}

// shrunkenSection unlocks before the channel op: the canonical fix.
func (n *node) shrunkenSection(v int) {
	n.mu.Lock()
	n.q = append(n.q, v)
	n.mu.Unlock()
	n.wake <- struct{}{}
}

// poke is the non-blocking wakeup idiom: select with default under a
// lock never blocks.
func (n *node) poke() {
	n.mu.Lock()
	defer n.mu.Unlock()
	select {
	case n.wake <- struct{}{}:
	default:
	}
}

// condWait releases the lock while blocked; exempt by design.
func (n *node) condWait() {
	n.mu.Lock()
	for len(n.q) == 0 {
		n.cond.Wait()
	}
	n.mu.Unlock()
}

// funcLitEscapes: the literal runs later (another goroutine, a callback),
// not under this region.
func (n *node) funcLitEscapes() func() {
	n.mu.Lock()
	defer n.mu.Unlock()
	return func() { n.wake <- struct{}{} }
}

// allowed documents a deliberate exception.
func (n *node) allowed() {
	n.mu.Lock()
	defer n.mu.Unlock()
	//locklint:allow single-threaded startup, nothing contends yet
	n.wake <- struct{}{}
}

// notAMutex: Lock/Unlock on a non-sync type is not tracked.
type fakeLock struct{}

func (fakeLock) Lock()   {}
func (fakeLock) Unlock() {}

func (n *node) notAMutex(f fakeLock) {
	f.Lock()
	n.wake <- struct{}{}
	f.Unlock()
}
