// Package earth defines the EARTH (Efficient Architecture for Running
// THreads) multithreaded execution model as a Go API — a "Threaded-Go"
// embedding of EARTH Threaded-C.
//
// # Model
//
// An EARTH program runs on P distributed-memory nodes. Code is organised
// into threaded functions whose state lives in a Frame allocated on one
// node. A frame carries numbered threads (non-preemptive code blocks, Go
// closures here) and numbered sync slots: counters initialised by InitSync
// that, on reaching zero, enable their associated thread, exactly like
// EARTH's INIT_SYNC/SYNC operations.
//
// All communication is split-phase and non-blocking:
//
//   - Ctx.Get    ~ GET_SYNC:  read remote data, deliver it locally, sync.
//   - Ctx.Put    ~ DATA_SYNC / BLKMOV: write data at a remote node, sync.
//   - Ctx.Sync   ~ SYNC / RSYNC: signal a (possibly remote) sync slot.
//   - Ctx.Invoke ~ INVOKE: run a threaded function on an explicit node.
//   - Ctx.Token  ~ TOKEN: run a threaded function subject to dynamic load
//     balancing (work stealing).
//
// Threads run to completion; a thread that needs to wait issues split-phase
// operations and ends, letting the sync slots re-enable its continuation.
//
// # Engines
//
// Two engines execute this model:
//
//   - simrt: a deterministic discrete-event simulator over virtual time.
//     Application code performs its real computation and charges modelled
//     compute time via Ctx.Compute; runtime operations charge a CostModel
//     (EARTH's microsecond overheads, or the paper's inflated
//     message-passing models) plus manna network time. This engine
//     regenerates the paper's tables and figures.
//
//   - livert: real concurrency — one executor goroutine per node,
//     channels as the network. It validates that programs written against
//     this API are correct concurrent programs (race-detector clean).
//
// Programs are written once against the Ctx interface and run on both.
package earth

import (
	"math/rand"

	"earth/internal/faults"
	"earth/internal/manna"
	"earth/internal/sim"
)

// NodeID identifies a machine node, 0-based.
type NodeID int

// ThreadBody is the code of one EARTH thread. It must not block; long
// waits are expressed with split-phase operations and continuations.
type ThreadBody func(Ctx)

// Ctx is the per-thread execution context handed to every ThreadBody. It is
// only valid during that body's execution: capturing a Ctx and using it
// after the body returns is a programming error.
//
// A Ctx is bound to the node the thread runs on. All operations are
// asynchronous (split-phase) except Compute, which models local work.
type Ctx interface {
	// Node returns the node this thread is executing on.
	Node() NodeID
	// P returns the machine's node count.
	P() int
	// Now returns the current time: virtual nanoseconds under simrt,
	// wall-clock nanoseconds since run start under livert.
	Now() sim.Time
	// Compute charges d of modelled local computation. Under simrt this
	// advances the node's virtual clock (with configured jitter); under
	// livert it is a no-op (the real computation takes real time).
	Compute(d sim.Time)
	// Rand returns this node's deterministic random source.
	Rand() *rand.Rand

	// Spawn enqueues thread `thread` of the local frame f on this node's
	// ready queue (EARTH: SPAWN). f must live on the current node.
	Spawn(f *Frame, thread int)
	// Sync signals sync slot `slot` of frame f (EARTH: SYNC/RSYNC). The
	// signal is routed to f's home node; when the counter reaches zero the
	// slot's thread is enqueued there.
	Sync(f *Frame, slot int)
	// Get performs a split-phase remote read of nbytes from owner
	// (EARTH: GET_SYNC / BLKMOV from remote). read executes on owner's
	// execution context and returns a deliver closure, which executes on
	// the requesting node when the response arrives; afterwards slot
	// `slot` of f is signalled. f may be nil for no completion signal.
	Get(owner NodeID, nbytes int, read func() func(), f *Frame, slot int)
	// Put performs a split-phase remote write of nbytes at owner
	// (EARTH: DATA_SYNC / BLKMOV to remote). write executes on owner's
	// execution context when the data arrives; afterwards slot `slot` of
	// f is signalled (routed to f's home node). f may be nil.
	Put(owner NodeID, nbytes int, write func(), f *Frame, slot int)
	// Invoke starts threaded function body on an explicitly chosen node
	// (EARTH: INVOKE), shipping argBytes of arguments. The body is a full
	// thread: it is dispatched by the target's scheduler and may compute
	// at length.
	Invoke(node NodeID, argBytes int, body ThreadBody)
	// Post delivers a short active-message handler to a node. Unlike
	// Invoke, the handler runs on the message-handling path — EARTH's
	// Synchronization Unit / polling watchdog — so it executes promptly
	// even while a long thread occupies the target's execution unit. Use
	// it for protocol work (queue services, locks, notifications); use
	// SpawnBody from inside the handler for anything compute-heavy.
	Post(node NodeID, argBytes int, handler ThreadBody)
	// Token starts threaded function body subject to dynamic load
	// balancing (EARTH: TOKEN): it may run locally or be stolen by an
	// idle node, per the configured Balancer.
	Token(argBytes int, body ThreadBody)
}

// WordGetter is the closure-free form of a one-word Get, which a Ctx may
// implement besides the interface: GetWord is Get(owner, SizeI64, read, f,
// slot) for the read that loads *src on owner and stores the word into *dst
// on the requester — same messages, same bytes, same events — with the word
// carried in the engine's message instead of two closures. Both engines'
// contexts implement it; GetSyncF64 and GetSyncI64 use it when the Ctx
// does and fall back to Get otherwise (a Ctx written outside the engines,
// such as the benchmark's free engine, need not know about it).
type WordGetter interface {
	GetWord(owner NodeID, src, dst *uint64, f *Frame, slot int)
}

// Runtime executes EARTH programs. Implementations: simrt.Runtime,
// livert.Runtime.
type Runtime interface {
	// Run executes main as thread 0 of an initial frame on node 0 and
	// returns when the whole machine is quiescent (no ready threads, no
	// tokens, no messages in flight).
	Run(main ThreadBody) *Stats
	// P returns the node count.
	P() int
}

// Balancer selects the dynamic load-balancing policy applied to TOKENs.
type Balancer int

const (
	// BalanceSteal is EARTH's receiver-initiated work stealing: tokens
	// stay on the creating node; idle nodes steal them. The default.
	BalanceSteal Balancer = iota
	// BalanceRandomPlace ships each token to a uniformly random node at
	// creation time (the Multipol/CM-5 strategy the paper compares
	// against for Eigenvalue).
	BalanceRandomPlace
	// BalanceRoundRobin ships tokens to nodes in cyclic order at creation.
	// Each node deals its own tokens from node 0, afresh in every Run.
	BalanceRoundRobin
	// BalanceNone keeps every token on its creating node.
	BalanceNone
)

func (b Balancer) String() string {
	switch b {
	case BalanceSteal:
		return "steal"
	case BalanceRandomPlace:
		return "random"
	case BalanceRoundRobin:
		return "roundrobin"
	case BalanceNone:
		return "none"
	}
	return "unknown"
}

// Config assembles a machine, a cost model and runtime policies.
type Config struct {
	// Nodes is the machine size. Required.
	Nodes int
	// Costs is the software-overhead model. Zero value: EARTHCosts().
	Costs CostModel
	// Machine, when non-nil, selects a full machine model (for example
	// manna.SP2 or manna.Myrinet) instead of the default MANNA
	// configuration; its Nodes field is overridden by Config.Nodes.
	Machine *manna.Config
	// Balancer is the TOKEN load-balancing policy.
	Balancer Balancer
	// Seed makes runs reproducible; runs with different seeds explore the
	// scheduling indeterminism the paper reports for Gröbner Basis.
	Seed int64
	// JitterPct, if nonzero, perturbs each Compute charge by a uniform
	// factor in [1-JitterPct/100, 1+JitterPct/100]. This models the timing
	// noise (cache effects, DRAM refresh...) that makes real parallel runs
	// indeterministic; it is the source of the min/max spread in Figure 4.
	JitterPct float64
	// Tracer, when non-nil, receives one Event per runtime action (see
	// events.go). Under simrt the stream is deterministic for a given
	// Config; under livert events carry wall-clock times and arrive
	// concurrently. A nil Tracer makes the engines' zero Sink, whose
	// Event does nothing.
	Tracer Tracer
	// UtilSamplePeriod, when positive and a Tracer is installed, makes
	// simrt emit EvUtilSample events for every node once per period of
	// virtual time (built-in utilisation profiling; livert ignores it).
	UtilSamplePeriod sim.Time
	// ProfileLabels, when true, makes livert tag every thread/handler
	// body with a runtime/pprof "earth_kind" label so CPU and goroutine
	// profiles split by work kind (executor goroutines always carry an
	// "earth_node" label). simrt ignores it: the simulator runs on one
	// goroutine and profiles of modelled time are meaningless.
	ProfileLabels bool
	// Faults, when non-nil and enabled, injects deterministic seeded
	// message faults (drop/duplicate/reorder delay, link degradation,
	// node pauses) and activates the Retry recovery protocol. Under simrt
	// the faulted run stays byte-reproducible for a given plan seed;
	// under livert penalties are real wall-clock delays. Pause and
	// degradation windows are interpreted in each engine's own clock
	// (virtual time under simrt, wall time since run start under livert).
	Faults *faults.Plan
	// Retry tunes the recovery protocol's failure detection and
	// retransmit spread when Faults is set; a zero Lease takes the
	// default.
	Retry RetryPolicy
	// Coalesce enables automatic same-destination message coalescing on
	// the wire path: remote Put/Sync/Post operations issued by one thread
	// or handler body to the same destination are merged into a single
	// batched wire transfer, flushed at the body's end (the engine-step
	// boundary) or earlier when it reaches 4096 bytes or 16 messages
	// (constants of Coalescer, the policy both engines share). A batch
	// pays one per-message overhead plus the summed serialisation
	// (manna.BatchCost) instead of one full overhead per operation, and
	// traverses the fault injector as a single envelope, so injector
	// verdicts apply per-batch deterministically. Get/Invoke/Token and
	// local operations are never coalesced. Under simrt coalesced runs
	// remain byte-reproducible; coalescing changes the cost model, so
	// outputs differ from (and are not comparable to) uncoalesced runs.
	Coalesce CoalesceConfig
	// Sanitize makes both engines track a per-slot signal ledger on every
	// frame they touch and report sync-contract violations at quiescence
	// (see SanitizeReport on Stats and the EvSanitize event): one-shot
	// slots signalled past exhaustion, slots still armed at program end
	// and installed threads that never ran. A signal past exhaustion,
	// which would otherwise panic, is recorded and swallowed so a run
	// reports every violation at once.
	// The report contains no timestamps and aggregates over frame
	// structure only, so it is byte-identical across coalesce modes.
	Sanitize bool
	// Shards is ignored. Deprecated: ignored since PR 19 — it used to split
	// a simrt machine over host workers that met at every window barrier,
	// and on the storm and on every figure a window holds too little work
	// (7.5 events, ≈ 1.2 µs) to repay one goroutine hand-off (more than
	// 1 µs), while the window cannot be widened without changing simulated
	// bytes (EXPERIMENTS.md, "PR 19"). The field is still declared only
	// because bench/, frozen for non-benchmark changes, sets it; it goes
	// with the benchmark-only change that drops bench's shards2 phase.
	// (Not its own "Deprecated:" paragraph until then: staticcheck SA1019
	// would fail CI on bench/'s assignment to it.)
	Shards int
}

// CoalesceConfig switches the wire-path coalescer (see Config.Coalesce).
// The zero value disables coalescing.
type CoalesceConfig struct {
	// Enabled turns the coalescer on.
	Enabled bool
}

// WithDefaults normalises a Config.
func (c Config) WithDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 1
	}
	if c.Costs.Name == "" {
		c.Costs = EARTHCosts()
	}
	return c
}
