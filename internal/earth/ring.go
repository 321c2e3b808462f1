package earth

import "sync"

// Ring is a growable ring-buffer deque: the engines' per-node work queues
// (simrt's ready queue and token pool; livert's handler queue, ready queue
// and token pool). Push appends at the back; PopFront serves FIFO queues
// and steals (oldest first), PopBack a node running its own tokens newest
// first. All three are O(1); popped slots are zeroed, so a finished thread
// body is not kept alive by the backing array. The buffer length is zero
// or a power of two, is never shrunk, and survives Reset, so a ring lent
// to one run after another (FreeList) refills the storage it has. The zero
// value is an empty ring. Not safe for concurrent use: livert guards each
// ring with its node's lock.
type Ring[T any] struct {
	buf  []T
	head int
	n    int
}

// Len returns the number of queued elements.
func (q *Ring[T]) Len() int { return q.n }

// Push appends v at the back, doubling the buffer when it is full.
func (q *Ring[T]) Push(v T) {
	if q.n == len(q.buf) {
		nb := make([]T, max(16, 2*len(q.buf)))
		k := copy(nb, q.buf[q.head:])
		copy(nb[k:], q.buf[:q.head])
		q.buf, q.head = nb, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// PopFront removes and returns the oldest element. The ring must not be
// empty.
func (q *Ring[T]) PopFront() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// PopFrontN moves the oldest min(Len, len(dst)) elements into dst, oldest
// first, and returns how many: livert's executors take their queued
// handlers this way, one copy and one clearing per contiguous run of the
// buffer instead of one of each per element.
func (q *Ring[T]) PopFrontN(dst []T) int {
	k := min(q.n, len(dst))
	if k == 0 {
		return 0
	}
	run := q.buf[q.head:min(q.head+k, len(q.buf))]
	wrapped := q.buf[:k-len(run)]
	copy(dst[copy(dst, run):], wrapped)
	clear(run)
	clear(wrapped)
	q.head = (q.head + k) & (len(q.buf) - 1)
	q.n -= k
	return k
}

// PopBack removes and returns the newest element. The ring must not be
// empty.
func (q *Ring[T]) PopBack() T {
	var zero T
	i := (q.head + q.n - 1) & (len(q.buf) - 1)
	v := q.buf[i]
	q.buf[i] = zero
	q.n--
	return v
}

// Reset empties the ring, zeroing what was queued and keeping the buffer.
func (q *Ring[T]) Reset() {
	for q.n > 0 {
		q.PopBack()
	}
	q.head = 0
}

// FreeList is a mutex-guarded stack of values that outlive their user: both
// engines keep the storage a run grows — queues, envelopes, event heap,
// a trace chunk — in one store per machine, which each Run takes from a
// FreeList when it starts and gives back before it returns, so a run starts
// on buffers its predecessors grew instead of doubling them up from empty.
// It is not a sync.Pool: the collector empties a pool every second cycle,
// and a sweep collects several times a second. Uncapped, a list never holds
// more values than were once in use at the same time. A value is given
// back at rest — holding nothing of the run that used it — and each Get
// hands it to one user only.
type FreeList[T any] struct {
	mu   sync.Mutex
	free []*T
}

// Get takes the value given back last, or a new zero one.
func (l *FreeList[T]) Get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	k := len(l.free)
	if k == 0 {
		return new(T)
	}
	v := l.free[k-1]
	l.free[k-1] = nil
	l.free = l.free[:k-1]
	return v
}

// Put gives v back.
func (l *FreeList[T]) Put(v *T) {
	l.mu.Lock()
	l.free = append(l.free, v)
	l.mu.Unlock()
}

// Listed returns the values on the list, the one given back first first:
// tests walk a free list to check that what was given back is at rest.
func (l *FreeList[T]) Listed() []*T {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*T(nil), l.free...)
}
