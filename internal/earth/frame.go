package earth

import (
	"fmt"
	"math"
)

// Frame is the activation record of a threaded function: it owns the
// function's numbered threads and sync slots and is pinned to one node.
//
// Frames are passive data; engines mutate them only from the owning node's
// execution context (the simulator's single event loop, or the owning
// node's executor goroutine under livert), so no locking is required. The
// Dec/ThreadBody accessors exist for engine use; applications interact
// with frames through SetThread/InitSync and the Ctx operations.
//
// A frame of at most one thread and one slot — every frame the
// applications build — keeps them inline and is one 48-byte heap object.
// Anything else it needs lives in one side record (frameExt).
type Frame struct {
	// Home is the node the frame lives on.
	Home NodeID

	nthreads, nslots int32
	// thread0 and slot0 hold the thread and the slot of a frame that has
	// at most one of each; a wider dimension lives in ext instead.
	thread0 [1]ThreadBody
	slot0   [1]slot

	// ext is nil unless the frame has more than one thread or slot, or an
	// engine running with Config.Sanitize attached the signal ledger.
	ext *frameExt
}

// frameExt is the part of a frame its inline fields do not hold.
type frameExt struct {
	threads []ThreadBody // the threads of a frame with more than one, else nil
	slots   []slot       // the slots of a frame with more than one, else nil

	// san is the sanitize-mode signal ledger (see sanitize.go), nil until
	// BeginSanitize: one word per thread, 1 once its body dispatched, then
	// one per slot, the syncs it swallowed on an exhausted one-shot. While
	// attached, Dec records such a signal and keeps going instead of
	// panicking, so one run can surface every violation at once. san0
	// backs it for a frame of at most two threads and slots in all.
	// Engines attach and read it only from the frame's home-node execution
	// context, like every other frame mutation.
	san  []uint32
	san0 [2]uint32
}

// slot is one sync slot. Counters are 32-bit so a slot is 16 bytes and
// slot0 fits the Frame's size class; InitSync checks the range.
type slot struct {
	count  int32
	reset  int32
	thread int32
	inited bool
}

// maxSyncCount is the largest count, reset value or thread id a slot holds,
// and the largest number of threads or slots a frame has.
const maxSyncCount = math.MaxInt32

// NewFrame allocates a frame on node home with nthreads thread entries and
// nslots sync slots.
func NewFrame(home NodeID, nthreads, nslots int) *Frame {
	if nthreads < 0 || nslots < 0 {
		panic("earth: negative frame dimensions")
	}
	if nthreads > maxSyncCount || nslots > maxSyncCount {
		panic(fmt.Sprintf("earth: frame of %d threads and %d slots: a dimension ends at %d",
			nthreads, nslots, maxSyncCount))
	}
	f := &Frame{Home: home, nthreads: int32(nthreads), nslots: int32(nslots)}
	if nthreads > len(f.thread0) || nslots > len(f.slot0) {
		f.ext = &frameExt{}
		if nthreads > len(f.thread0) {
			f.ext.threads = make([]ThreadBody, nthreads)
		}
		if nslots > len(f.slot0) {
			f.ext.slots = make([]slot, nslots)
		}
	}
	return f
}

// threads returns the frame's thread table.
func (f *Frame) threads() []ThreadBody {
	if int(f.nthreads) > len(f.thread0) {
		return f.ext.threads
	}
	return f.thread0[:f.nthreads]
}

// slots returns the frame's sync slots.
func (f *Frame) slots() []slot {
	if int(f.nslots) > len(f.slot0) {
		return f.ext.slots
	}
	return f.slot0[:f.nslots]
}

// SetThread installs body as thread id (EARTH: THREAD_id label).
func (f *Frame) SetThread(id int, body ThreadBody) *Frame {
	threads := f.threads()
	if id < 0 || id >= len(threads) {
		panic(fmt.Sprintf("earth: thread id %d out of range [0,%d)", id, len(threads)))
	}
	threads[id] = body
	return f
}

// InitSync initialises sync slot s with an initial count, a reset count and
// the thread the slot enables (EARTH: INIT_SYNC). count must be >= 1: a
// slot that starts enabled is a Spawn, not a sync. reset == 0 makes the
// slot one-shot. Neither may exceed math.MaxInt32.
//
// InitSync must run on the frame's home node (typically in the thread that
// created the frame, before any Sync can race with it).
func (f *Frame) InitSync(s, count, reset, thread int) *Frame {
	slots := f.slots()
	if s < 0 || s >= len(slots) {
		panic(fmt.Sprintf("earth: slot %d out of range [0,%d)", s, len(slots)))
	}
	if count < 1 {
		panic(fmt.Sprintf("earth: InitSync slot %d with count %d < 1", s, count))
	}
	if reset < 0 {
		panic(fmt.Sprintf("earth: InitSync slot %d with negative reset %d", s, reset))
	}
	if thread < 0 || thread >= int(f.nthreads) {
		panic(fmt.Sprintf("earth: InitSync slot %d names thread %d out of range", s, thread))
	}
	if count > maxSyncCount || reset > maxSyncCount || thread > maxSyncCount {
		panic(fmt.Sprintf("earth: InitSync slot %d with count %d, reset %d, thread %d: the slot's range ends at %d",
			s, count, reset, thread, maxSyncCount))
	}
	slots[s] = slot{count: int32(count), reset: int32(reset), thread: int32(thread), inited: true}
	return f
}

// Dec decrements slot s and reports whether it fired; if so, thread is the
// thread to enqueue and the counter has been reset. Engine use only; must
// be called from the frame's home node context.
func (f *Frame) Dec(s int) (fired bool, thread int) {
	slots := f.slots()
	if s < 0 || s >= len(slots) {
		panic(fmt.Sprintf("earth: sync on slot %d out of range [0,%d)", s, len(slots)))
	}
	sl := &slots[s]
	if !sl.inited {
		panic(fmt.Sprintf("earth: sync on uninitialised slot %d", s))
	}
	if sl.count <= 0 {
		if _, overflow := f.ledger(); overflow != nil {
			overflow[s]++
			return false, 0
		}
		panic(fmt.Sprintf("earth: sync on exhausted one-shot slot %d", s))
	}
	sl.count--
	if sl.count > 0 {
		return false, 0
	}
	sl.count = sl.reset // 0 leaves the slot exhausted (one-shot)
	return true, int(sl.thread)
}

// ThreadBody returns the installed body of thread id. Engine use.
func (f *Frame) ThreadBody(id int) ThreadBody {
	b := f.threads()[id]
	if b == nil {
		panic(fmt.Sprintf("earth: thread %d enabled but not set", id))
	}
	if f.Sanitized() {
		f.ext.san[id] = 1
	}
	return b
}

// BeginSanitize attaches the signal ledger the sanitizer scans at run
// end (see BuildSanitizeReport). Engine use only; must be called from
// the frame's home node context, like Dec.
func (f *Frame) BeginSanitize() {
	if f.Sanitized() {
		return
	}
	if f.ext == nil {
		f.ext = &frameExt{}
	}
	if n := int(f.nthreads) + int(f.nslots); n <= len(f.ext.san0) {
		f.ext.san = f.ext.san0[:n]
	} else {
		f.ext.san = make([]uint32, n)
	}
}

// Sanitized reports whether a signal ledger is attached, so engines
// register each frame exactly once.
func (f *Frame) Sanitized() bool { return f.ext != nil && f.ext.san != nil }

// ledger returns the signal ledger split per thread (non-zero once the
// body dispatched) and per slot (signals swallowed), both nil while none
// is attached.
func (f *Frame) ledger() (ran, overflow []uint32) {
	if !f.Sanitized() {
		return nil, nil
	}
	return f.ext.san[:f.nthreads], f.ext.san[f.nthreads:]
}
