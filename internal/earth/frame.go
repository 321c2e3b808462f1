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
type Frame struct {
	// Home is the node the frame lives on.
	Home NodeID

	threads []ThreadBody
	slots   []slot
	// thread0 and slot0 back threads and slots when the frame has at most
	// one of each — every frame the applications build — so such a frame is
	// one heap object. A Frame is therefore never copied by value.
	thread0 [1]ThreadBody
	slot0   [1]slot

	// san is the per-frame signal ledger attached by an engine running
	// with Config.Sanitize (see sanitize.go). While attached, Dec records
	// a signal at an exhausted one-shot slot and keeps going instead of
	// panicking, so one run can surface every violation at once. Engines
	// attach and read it only from the frame's home-node execution
	// context, like every other frame mutation.
	san *frameSan
}

// frameSan is the sanitize-mode ledger: which threads ever dispatched,
// and how many contract violations each slot absorbed.
type frameSan struct {
	ran      []bool   // per thread: body dispatched at least once
	overflow []uint32 // per slot: syncs swallowed on an exhausted one-shot
}

// slot is one sync slot. Counters are 32-bit so a slot is 16 bytes and
// slot0 fits the Frame's size class; InitSync checks the range.
type slot struct {
	count  int32
	reset  int32
	thread int32
	inited bool
}

// maxSyncCount is the largest count, reset value or thread id a slot holds.
const maxSyncCount = math.MaxInt32

// NewFrame allocates a frame on node home with nthreads thread entries and
// nslots sync slots.
func NewFrame(home NodeID, nthreads, nslots int) *Frame {
	if nthreads < 0 || nslots < 0 {
		panic("earth: negative frame dimensions")
	}
	f := &Frame{Home: home}
	if nthreads <= len(f.thread0) {
		f.threads = f.thread0[:nthreads]
	} else {
		f.threads = make([]ThreadBody, nthreads)
	}
	if nslots <= len(f.slot0) {
		f.slots = f.slot0[:nslots]
	} else {
		f.slots = make([]slot, nslots)
	}
	return f
}

// SetThread installs body as thread id (EARTH: THREAD_id label).
func (f *Frame) SetThread(id int, body ThreadBody) *Frame {
	if id < 0 || id >= len(f.threads) {
		panic(fmt.Sprintf("earth: thread id %d out of range [0,%d)", id, len(f.threads)))
	}
	f.threads[id] = body
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
	if s < 0 || s >= len(f.slots) {
		panic(fmt.Sprintf("earth: slot %d out of range [0,%d)", s, len(f.slots)))
	}
	if count < 1 {
		panic(fmt.Sprintf("earth: InitSync slot %d with count %d < 1", s, count))
	}
	if reset < 0 {
		panic(fmt.Sprintf("earth: InitSync slot %d with negative reset %d", s, reset))
	}
	if thread < 0 || thread >= len(f.threads) {
		panic(fmt.Sprintf("earth: InitSync slot %d names thread %d out of range", s, thread))
	}
	if count > maxSyncCount || reset > maxSyncCount || thread > maxSyncCount {
		panic(fmt.Sprintf("earth: InitSync slot %d with count %d, reset %d, thread %d: the slot's range ends at %d",
			s, count, reset, thread, maxSyncCount))
	}
	f.slots[s] = slot{count: int32(count), reset: int32(reset), thread: int32(thread), inited: true}
	return f
}

// Dec decrements slot s and reports whether it fired; if so, thread is the
// thread to enqueue and the counter has been reset. Engine use only; must
// be called from the frame's home node context.
func (f *Frame) Dec(s int) (fired bool, thread int) {
	if s < 0 || s >= len(f.slots) {
		panic(fmt.Sprintf("earth: sync on slot %d out of range [0,%d)", s, len(f.slots)))
	}
	sl := &f.slots[s]
	if !sl.inited {
		panic(fmt.Sprintf("earth: sync on uninitialised slot %d", s))
	}
	if sl.count <= 0 {
		if f.san != nil {
			f.san.overflow[s]++
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
	b := f.threads[id]
	if b == nil {
		panic(fmt.Sprintf("earth: thread %d enabled but not set", id))
	}
	if f.san != nil {
		f.san.ran[id] = true
	}
	return b
}

// BeginSanitize attaches the signal ledger the sanitizer scans at run
// end (see BuildSanitizeReport). Engine use only; must be called from
// the frame's home node context, like Dec.
func (f *Frame) BeginSanitize() {
	if f.san == nil {
		f.san = &frameSan{
			ran:      make([]bool, len(f.threads)),
			overflow: make([]uint32, len(f.slots)),
		}
	}
}

// Sanitized reports whether a signal ledger is attached, so engines
// register each frame exactly once.
func (f *Frame) Sanitized() bool { return f.san != nil }
