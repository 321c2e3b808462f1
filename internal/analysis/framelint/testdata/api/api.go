// Package api is a miniature EARTH API surface for framelint's tests:
// just the type and method names the analyzer keys on. Bodies are
// no-ops — only the shapes matter.
package api

type NodeID int

type ThreadBody func(Ctx)

type Frame struct{ Home NodeID }

func NewFrame(home NodeID, nthreads, nslots int) *Frame { return &Frame{Home: home} }

func (f *Frame) SetThread(id int, body ThreadBody) *Frame    { return f }
func (f *Frame) InitSync(s, count, reset, thread int) *Frame { return f }
func (f *Frame) Dec(s int) (fired bool, thread int)          { return false, 0 }

type Ctx interface {
	Node() NodeID
	Spawn(f *Frame, thread int)
	Sync(f *Frame, slot int)
	Get(owner NodeID, nbytes int, read func() func(), f *Frame, slot int)
	Put(owner NodeID, nbytes int, write func(), f *Frame, slot int)
	Invoke(node NodeID, argBytes int, body ThreadBody)
	Post(node NodeID, argBytes int, handler ThreadBody)
	Token(argBytes int, body ThreadBody)
}

type WordGetter interface {
	GetWord(owner NodeID, src, dst *uint64, f *Frame, slot int)
}

func Rsync(c Ctx, f *Frame, slot int) { c.Sync(f, slot) }

func GetSyncI64(c Ctx, owner NodeID, src, dst *int, f *Frame, slot int) {}

func BlkMovBytesV(c Ctx, owner NodeID, sizes []int, writes []func(), f *Frame, slot int) {}

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
	// EvViaParam, EvViaSource and EvViaLocal mirror kinds that reach the
	// Event literal through an accounting method's kind parameter, a
	// function returning the kind, and a local: ok.go emits all three, so
	// the audit must stay quiet about them.
	EvViaParam
	EvViaSource
	EvViaLocal
	// EvOnlyRead is only compared, switched on and used as an index, as
	// a consumer reads a kind: the audit must flag it.
	EvOnlyRead // want `trace-event constant EvOnlyRead is defined but never emitted`
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
