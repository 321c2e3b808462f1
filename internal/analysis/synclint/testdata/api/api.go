// Package api is a miniature of the EARTH API surface synclint keys on:
// Frame/InitSync/Add, Ctx's split-phase operations, RetryPolicy/Config,
// and the Tracer/Event/Ev* observability layer. synclint matches on type
// and method names, so this self-contained copy exercises the same code
// paths as the real earth package.
package api

// Frame mirrors earth.Frame's sync-slot API.
type Frame struct {
	slots []int
}

func NewFrame(home, nthreads, nslots int) *Frame { return &Frame{slots: make([]int, nslots)} }

func (f *Frame) InitSync(s, count, reset, thread int) *Frame { return f }

func (f *Frame) Add(s, delta int) {}

// Ctx mirrors the split-phase operations that signal sync slots.
type Ctx interface {
	Sync(f *Frame, slot int)
	Get(owner, nbytes int, read func() func(), f *Frame, slot int)
	Put(owner, nbytes int, write func(), f *Frame, slot int)
	Post(node, argBytes int, handler func(Ctx))
}

// RetryPolicy mirrors earth.RetryPolicy.
type RetryPolicy struct {
	Lease  int64
	Jitter float64
}

// Config mirrors earth.Config.
type Config struct {
	Nodes     int
	JitterPct float64
	Seed      int64
}

// EventKind and the Ev* constants mirror the trace-event table. EvNever
// is deliberately unemitted: the cross-package audit must flag it.
type EventKind uint8

const (
	EvUsed EventKind = iota
	EvAlsoUsed
	EvNever // want `trace-event constant EvNever is defined but never emitted`
	// EvTokenDeliver mirrors the remote-token arrival leg: ok.go emits it
	// behind the nil guard, so the audit must stay quiet about it.
	EvTokenDeliver
	// EvGhostDeliver mirrors adding an arrival-leg constant without ever
	// wiring the emission into an engine.
	EvGhostDeliver // want `trace-event constant EvGhostDeliver is defined but never emitted`
	// EvBatchFlush mirrors the coalescer's batch-flush event: ok.go emits
	// it behind the nil guard and misuse.go without one.
	EvBatchFlush
	// EvPartitionFence mirrors the wrong-verdict fence event of the
	// partition protocol: ok.go emits it behind the nil guard, so the
	// audit must stay quiet about it.
	EvPartitionFence
	// EvFenced mirrors the stale-epoch message rejection event: misuse.go
	// emits it without the guard, which must fire the guard check only.
	EvFenced
	// EvRejoined mirrors the partition-heal rejoin event; declared without
	// ever wiring the emission into an engine, the audit must flag it.
	EvRejoined // want `trace-event constant EvRejoined is defined but never emitted`
)

// Event mirrors earth.Event, including the latency and peer attribution
// fields the deliver legs carry.
type Event struct {
	Time  int64
	Dur   int64
	Peer  int
	Bytes int
	Kind  EventKind
}

// Tracer mirrors earth.Tracer.
type Tracer interface {
	Event(Event)
}
