package earth

// Ring is a growable ring-buffer deque: the engines' per-node work queues
// (simrt's ready queue and token pool; livert's handler queue, ready queue
// and token pool). Push appends at the back; PopFront serves FIFO queues
// and steals (oldest first), PopBack a node running its own tokens newest
// first. All three are O(1); popped slots are zeroed, so a finished thread
// body is not kept alive by the backing array. The buffer length is zero
// or a power of two, is never shrunk, and survives Reset, so an engine that
// is Run again refills the storage it has. The zero value is an empty ring.
// Not safe for concurrent use: livert guards each ring with its node's lock.
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
