package earth

import (
	"unsafe"

	"earth/internal/sim"
)

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
	SizeF32 = 4
	SizeI64 = 8
	SizeI32 = 4
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

// DataSyncI64 is DATA_SYNC_L: store an int remotely.
func DataSyncI64(c Ctx, owner NodeID, v int, dst *int, f *Frame, slot int) {
	DataSyncVal(c, owner, SizeI64, v, dst, f, slot)
}

// BlkMovFrom fetches a block of ns float64s from a slice owned by node
// owner into a local slice, then signals (f, slot) — BLKMOV in the
// remote-to-local direction. src and dst must have equal length.
func BlkMovFrom(c Ctx, owner NodeID, src, dst []float64, f *Frame, slot int) {
	if len(src) != len(dst) {
		panic("earth: BlkMovFrom length mismatch")
	}
	n := len(src)
	c.Get(owner, n*SizeF64, func() func() {
		tmp := make([]float64, n)
		copy(tmp, src)
		return func() { copy(dst, tmp) }
	}, f, slot)
}

// BlkMovTo stores a local block into a slice owned by node owner, then
// signals (f, slot) — BLKMOV in the local-to-remote direction. The data is
// snapshotted at call time, matching hardware semantics where the block
// leaves the node when the operation is issued.
func BlkMovTo(c Ctx, owner NodeID, src, dst []float64, f *Frame, slot int) {
	if len(src) != len(dst) {
		panic("earth: BlkMovTo length mismatch")
	}
	tmp := make([]float64, len(src))
	copy(tmp, src)
	c.Put(owner, len(src)*SizeF64, func() { copy(dst, tmp) }, f, slot)
}

// BlkMovBytes models a block transfer of nbytes whose effect is an
// arbitrary closure executed at the owner (used when the payload is an
// application structure rather than a float slice).
func BlkMovBytes(c Ctx, owner NodeID, nbytes int, write func(), f *Frame, slot int) {
	c.Put(owner, nbytes, write, f, slot)
}

// BlkMovFromV is the vectored BLKMOV gather: it fetches several blocks
// owned by one node in a single wire transfer (one request, one response
// carrying the summed bytes, one sync) instead of one BlkMovFrom per
// block. srcs[i] is copied into dsts[i]; elemBytes is the element size
// used for cost accounting (SizeF64, SizeF32, ...). srcs and dsts must
// pair up with equal lengths.
func BlkMovFromV[T any](c Ctx, owner NodeID, elemBytes int, srcs, dsts [][]T, f *Frame, slot int) {
	if len(srcs) != len(dsts) {
		panic("earth: BlkMovFromV block-count mismatch")
	}
	total := 0
	for i := range srcs {
		if len(srcs[i]) != len(dsts[i]) {
			panic("earth: BlkMovFromV length mismatch")
		}
		total += len(srcs[i]) * elemBytes
	}
	c.Get(owner, total, func() func() {
		tmp := make([][]T, len(srcs))
		for i := range srcs {
			tmp[i] = append([]T(nil), srcs[i]...)
		}
		return func() {
			for i := range tmp {
				copy(dsts[i], tmp[i])
			}
		}
	}, f, slot)
}

// BlkMovToV is the vectored BLKMOV scatter: it stores several local
// blocks into slices owned by one node in a single wire transfer, then
// signals (f, slot) once. srcs[i] is copied into dsts[i]; every block is
// snapshotted at call time (the data leaves the node when the operation
// is issued), exactly like BlkMovTo.
func BlkMovToV[T any](c Ctx, owner NodeID, elemBytes int, srcs, dsts [][]T, f *Frame, slot int) {
	if len(srcs) != len(dsts) {
		panic("earth: BlkMovToV block-count mismatch")
	}
	total := 0
	tmp := make([][]T, len(srcs))
	for i := range srcs {
		if len(srcs[i]) != len(dsts[i]) {
			panic("earth: BlkMovToV length mismatch")
		}
		total += len(srcs[i]) * elemBytes
		tmp[i] = append([]T(nil), srcs[i]...)
	}
	c.Put(owner, total, func() {
		for i := range tmp {
			copy(dsts[i], tmp[i])
		}
	}, f, slot)
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

// InvokeArgs models INVOKE with an explicit argument byte count computed
// from a list of value sizes (the paper reports e.g. "3 integers and 2
// doubles = 28 bytes").
func InvokeArgs(c Ctx, node NodeID, body ThreadBody, sizes ...int) {
	n := 0
	for _, s := range sizes {
		n += s
	}
	c.Invoke(node, n, body)
}

// ComputeUS charges n microseconds of modelled computation.
func ComputeUS(c Ctx, us float64) { c.Compute(sim.FromMicroseconds(us)) }

// ComputeMS charges n milliseconds of modelled computation.
func ComputeMS(c Ctx, ms float64) { c.Compute(sim.FromMilliseconds(ms)) }
