package earth

import "unsafe"

// This file provides the typed Threaded-C-style convenience layer over the
// Ctx primitives: GET_SYNC_x, DATA_SYNC_x and BLKMOV analogues. The size
// arguments feed the communication cost model. A one-word GET_SYNC on an
// engine context (GetSyncF64, GetSyncI64 through WordGetter) moves its word
// in the engine's message: loaded on the owner, stored on the requester.
// Everything else moves its data through Go closures that execute on the
// correct node's context. Either way the owner-node ownership discipline
// is preserved on both engines.

// Word sizes used for cost accounting, in bytes.
const (
	SizeF64 = 8
	SizeI64 = 8
)

// GetSyncVal reads *src on node owner and stores it into *dst on the
// calling node, then signals (f, slot). nbytes is the transfer size used
// by the cost model. This is the generic GET_SYNC_x.
func GetSyncVal[T any](c Ctx, owner NodeID, nbytes int, src, dst *T, f *Frame, slot int) {
	c.Get(owner, nbytes, func() func() {
		v := *src
		return func() { *dst = v }
	}, f, slot)
}

// GetSyncF64 is GET_SYNC_D: fetch a remote float64. The word is moved as
// its bits, through WordGetter when c implements it.
func GetSyncF64(c Ctx, owner NodeID, src, dst *float64, f *Frame, slot int) {
	if w, ok := c.(WordGetter); ok {
		w.GetWord(owner, (*uint64)(unsafe.Pointer(src)), (*uint64)(unsafe.Pointer(dst)), f, slot)
		return
	}
	GetSyncVal(c, owner, SizeF64, src, dst, f, slot)
}

// GetSyncI64 is GET_SYNC_L: fetch a remote int64/int. Where int is eight
// bytes the word goes through WordGetter when c implements it.
func GetSyncI64(c Ctx, owner NodeID, src, dst *int, f *Frame, slot int) {
	if w, ok := c.(WordGetter); ok && unsafe.Sizeof(int(0)) == SizeI64 {
		w.GetWord(owner, (*uint64)(unsafe.Pointer(src)), (*uint64)(unsafe.Pointer(dst)), f, slot)
		return
	}
	GetSyncVal(c, owner, SizeI64, src, dst, f, slot)
}

// DataSyncVal writes v into *dst owned by node owner, then signals
// (f, slot). This is the generic DATA_SYNC_x.
func DataSyncVal[T any](c Ctx, owner NodeID, nbytes int, v T, dst *T, f *Frame, slot int) {
	c.Put(owner, nbytes, func() { *dst = v }, f, slot)
}

// DataSyncF64 is DATA_SYNC_D: store a float64 remotely.
func DataSyncF64(c Ctx, owner NodeID, v float64, dst *float64, f *Frame, slot int) {
	DataSyncVal(c, owner, SizeF64, v, dst, f, slot)
}

// BlkMovBytes models a block transfer of nbytes whose effect is an
// arbitrary closure executed at the owner: BLKMOV of an application
// structure.
func BlkMovBytes(c Ctx, owner NodeID, nbytes int, write func(), f *Frame, slot int) {
	c.Put(owner, nbytes, write, f, slot)
}

// BlkMovBytesV is the untyped vectored block move: sizes[i] bytes whose
// effect is writes[i], all shipped to owner as one transfer of the
// summed size with a single completion signal. Used when the payloads
// are application structures (e.g. replicating a set of polynomials).
func BlkMovBytesV(c Ctx, owner NodeID, sizes []int, writes []func(), f *Frame, slot int) {
	if len(sizes) != len(writes) {
		panic("earth: BlkMovBytesV sizes/writes mismatch")
	}
	total := 0
	for _, n := range sizes {
		total += n
	}
	ws := append([]func(){}, writes...)
	c.Put(owner, total, func() {
		for _, w := range ws {
			w()
		}
	}, f, slot)
}

// Rsync signals a (possibly remote) sync slot: EARTH's RSYNC, used to
// report the completion of a threaded function to its caller.
func Rsync(c Ctx, f *Frame, slot int) { c.Sync(f, slot) }

// SpawnBody is a convenience for the common pattern of running an
// anonymous one-thread function locally: it wraps body in a frame and
// spawns it (cheaper idiom than Invoke to self).
func SpawnBody(c Ctx, body ThreadBody) {
	f := NewFrame(c.Node(), 1, 0)
	f.SetThread(0, body)
	c.Spawn(f, 0)
}
