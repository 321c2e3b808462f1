package earth

import "earth/internal/sim"

// This file defines the event-level observability layer shared by both
// engines. A Tracer installed on Config receives one typed Event per
// runtime action: thread dispatches, sync-slot signals, the legs of every
// split-phase communication, token spawns and the steal protocol.
// Timestamps are virtual nanoseconds under simrt and wall-clock
// nanoseconds since run start under livert, so the same consumers (the
// Chrome-trace recorder and the metrics collector in internal/obs) work
// on both engines.
//
// The engines and the protocol core emit into a Sink. A nil Config.Tracer
// makes the zero Sink, whose Event does nothing, so an emission point
// needs no guard of its own. Where building the event costs work (a clock
// read, a loop, or a hot accounting method: see NodeAcct) the caller asks
// Sink.On first.

// EventKind identifies the runtime action an Event reports.
type EventKind uint8

const (
	// EvThreadRun reports one executed thread body: Time is the dispatch
	// instant, Dur the run length, Wait the delay between the thread
	// becoming ready (spawn, sync fire, message arrival) and its dispatch,
	// and Cause what enabled it.
	EvThreadRun EventKind = iota
	// EvHandlerRun reports an active-message handler executed on the
	// Synchronization-Unit/handler path (Ctx.Post deliveries).
	EvHandlerRun
	// EvSyncSignal reports a sync-slot decrement processed on the slot's
	// home node. Peer is the signalling node (== Node for local syncs).
	EvSyncSignal
	// EvGetSend/EvGetDeliver are the two ends of a split-phase remote
	// read: the request leaving the requester, and the response data
	// landing back on it. Dur on the deliver event is the full round
	// trip; Bytes is the payload size.
	EvGetSend
	EvGetDeliver
	// EvPutSend/EvPutDeliver are the two ends of a split-phase remote
	// write (DATA_SYNC/BLKMOV). Dur on the deliver event is the one-way
	// latency from issue to the write executing at the owner.
	EvPutSend
	EvPutDeliver
	// EvInvokeSend/EvInvokeDeliver are the two ends of a remote INVOKE:
	// Dur on the deliver event is the latency from issue to the body
	// entering the target's ready queue.
	EvInvokeSend
	EvInvokeDeliver
	// EvPostSend reports an active-message Post leaving its sender; the
	// matching execution appears as EvHandlerRun on the target.
	EvPostSend
	// EvTokenSpawn reports a TOKEN creation. Peer is the placement target
	// for the random/round-robin balancers, or -1 when the token is
	// pooled locally for stealing.
	EvTokenSpawn
	// EvTokenDeliver reports a placed token (random/round-robin placement
	// or crash re-dispatch) arriving at a remote node's pool: Peer is the
	// sender, Dur the placement latency from the spawn's issue, Bytes the
	// argument size. Tokens executed on their creating node and tokens
	// moved by the steal protocol have no deliver leg (the latter appear
	// as EvStealGrant); together with EvTokenSpawn this closes the causal
	// chain the critical-path analysis walks.
	EvTokenDeliver
	// EvStealRequest/EvStealGrant/EvStealMiss trace the work-stealing
	// protocol from the thief's perspective: a request sent to a victim, a
	// stolen token arriving (Dur = round trip from request or deposit),
	// and a request that found the victim's pool empty.
	EvStealRequest
	EvStealGrant
	EvStealMiss
	// EvUtilSample is a periodic utilisation sample emitted by simrt when
	// Config.UtilSamplePeriod is set: Dur is the busy time the node
	// accrued during the sample window ending at Time.
	EvUtilSample
	// EvFaultInjected reports a fault-plan intervention: Cause says which
	// (CauseDrop/CauseDup/CauseDelay on the sending node of the affected
	// message, CausePause on a paused node). Dur is the induced delay
	// where one is modelled (total retransmit penalty, reorder hold-back,
	// pause length).
	EvFaultInjected
	// EvTimedOut reports a modelled per-attempt ack timeout expiring on
	// the sender of a dropped transmission; Dur is the armed timeout.
	EvTimedOut
	// EvRetry reports the retransmission following an EvTimedOut.
	EvRetry
	// EvRecovered reports a message landing after at least one dropped
	// attempt: Dur is issue-to-delivery including all retransmit
	// penalties, accounted to the receiving node.
	EvRecovered
	// EvNodeDown reports a crash-stop failure crossing its detection
	// lease: Peer is the dead node, Node the surviving successor that
	// adopts its checkpointed frames, and Dur the detection latency
	// (RetryPolicy.Lease).
	EvNodeDown
	// EvFrameReplayed reports one checkpointed frame or queued thread
	// re-instantiated on a survivor after a crash: Node is the adopting
	// node, Peer the dead one.
	EvFrameReplayed
	// EvWorkReassigned reports a token owned by (or in flight to) a dead
	// node being returned to the load balancer and re-placed: Node is the
	// new owner, Peer the dead node.
	EvWorkReassigned
	// EvBatchFlush reports the coalescer shipping one batched wire
	// transfer: Node is the sender, Peer the destination, Bytes the summed
	// payload of the merged messages, and Wait the number of messages in
	// the batch (the field is otherwise unused by send-side events; obs
	// builds its batch-size histogram from it). Time is the flush instant.
	// The per-operation send events (EvPutSend/EvPostSend) are still
	// emitted at their issue points; EvBatchFlush marks the single wire
	// transfer that carries them.
	EvBatchFlush
	// EvSanitize reports one aggregated sync-contract violation found by
	// the Config.Sanitize end-of-run scan (see SanitizeReport): Node is
	// the offending frame's home, Bytes the slot or thread index, Dur the
	// violation count, and Time the run's makespan (the scan happens at
	// quiescence). A sanitized clean run emits none.
	EvSanitize
	// EvPartitionStart/EvPartitionHeal bracket one partition window as
	// seen by one minority-side node: Node is the partitioned node, Dur
	// the window length on the start event. Heal is emitted only for
	// nodes that did not self-fence (fenced nodes emit EvRejoined
	// instead, which carries the reconciliation accounting).
	EvPartitionStart
	EvPartitionHeal
	// EvPartitionFence reports a wrong failure verdict: a partition
	// outlived the detection lease, so the survivors declared Peer (a
	// merely partitioned node) dead, bumped its incarnation epoch, and
	// Node (the ring successor) adopted its frames and queued work. Dur
	// is the detection latency (RetryPolicy.Lease). The adopted work
	// itself is traced by the same EvFrameReplayed/EvWorkReassigned
	// events a real crash produces, with Cause = CausePartition.
	EvPartitionFence
	// EvFenced reports a stale-epoch message rejected by the receiver's
	// fencing check: Node is the rejecting receiver, Peer the sender
	// whose incarnation epoch was stale (it had been declared dead while
	// merely partitioned). The message's effect is discarded — adopted
	// frame state is never touched by the old incarnation.
	EvFenced
	// EvRejoined reports a self-fenced node completing its reconciliation
	// handshake when the partition heals: Node is the rejoining node, Dur
	// how long it was fenced (heal minus fence instant). It rejoins at
	// the bumped epoch as a steal-only worker; ownership of its adopted
	// frames stays with the adopter.
	EvRejoined
	// EvCorrupt reports the receiver's checksum having caught one or more
	// bit-flipped attempts of a message before its clean copy landed: Node
	// is the receiver, Peer the sender, Dur the end-to-end issue-to-
	// delivery latency the NACK+resend exchanges inflated. (EvRecovered
	// stays reserved for drop recovery.)
	EvCorrupt

	numEventKinds
)

// KindCount is the number of defined event kinds, for consumers that
// aggregate per kind.
const KindCount = int(numEventKinds)

var eventKindNames = [numEventKinds]string{
	EvThreadRun:      "thread",
	EvHandlerRun:     "handler",
	EvSyncSignal:     "sync",
	EvGetSend:        "get.send",
	EvGetDeliver:     "get.deliver",
	EvPutSend:        "put.send",
	EvPutDeliver:     "put.deliver",
	EvInvokeSend:     "invoke.send",
	EvInvokeDeliver:  "invoke.deliver",
	EvPostSend:       "post.send",
	EvTokenSpawn:     "token",
	EvTokenDeliver:   "token.deliver",
	EvStealRequest:   "steal.request",
	EvStealGrant:     "steal.grant",
	EvStealMiss:      "steal.miss",
	EvUtilSample:     "util",
	EvFaultInjected:  "fault",
	EvTimedOut:       "timeout",
	EvRetry:          "retry",
	EvRecovered:      "recovered",
	EvNodeDown:       "node.down",
	EvFrameReplayed:  "frame.replayed",
	EvWorkReassigned: "work.reassigned",
	EvBatchFlush:     "batch.flush",
	EvSanitize:       "sanitize",
	EvPartitionStart: "partition.start",
	EvPartitionHeal:  "partition.heal",
	EvPartitionFence: "partition.fence",
	EvFenced:         "fenced",
	EvRejoined:       "rejoined",
	EvCorrupt:        "corrupt",
}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "unknown"
}

// Cause records what made a dispatched thread ready.
type Cause uint8

const (
	// CauseSpawn: a local Spawn (or the program's main thread).
	CauseSpawn Cause = iota
	// CauseSync: a sync slot reached zero and enabled the thread.
	CauseSync
	// CauseInvoke: the body arrived via INVOKE.
	CauseInvoke
	// CauseToken: a locally created or placed token was dispatched.
	CauseToken
	// CauseSteal: a token stolen from another node was dispatched.
	CauseSteal
	// CauseHandler: an active-message handler (Post delivery).
	CauseHandler
	// CauseDrop/CauseDup/CauseDelay/CausePause qualify EvFaultInjected
	// (and the recovery events that follow a drop): which fault the plan
	// injected.
	CauseDrop
	CauseDup
	CauseDelay
	CausePause
	// CauseCrash qualifies EvFaultInjected for a crash-stop failure and
	// the work re-dispatched because of one.
	CauseCrash
	// CausePartition qualifies partition-induced events: messages held at
	// a cut link, work adopted after a wrong death verdict, threads
	// re-dispatched from a fenced node's queues.
	CausePartition
	// CauseCorrupt qualifies EvFaultInjected and the recovery events that
	// follow a checksum-detected payload corruption.
	CauseCorrupt

	numCauses
)

var causeNames = [numCauses]string{
	CauseSpawn:     "spawn",
	CauseSync:      "sync",
	CauseInvoke:    "invoke",
	CauseToken:     "token",
	CauseSteal:     "steal",
	CauseHandler:   "handler",
	CauseDrop:      "drop",
	CauseDup:       "dup",
	CauseDelay:     "delay",
	CausePause:     "pause",
	CauseCrash:     "crash",
	CausePartition: "partition",
	CauseCorrupt:   "corrupt",
}

func (c Cause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return "unknown"
}

// NoPeer marks the Peer field of events with no second endpoint.
const NoPeer NodeID = -1

// Event is one runtime action observed on a node. Fields that do not
// apply to a Kind are zero (Peer is NoPeer where meaningless).
type Event struct {
	// Time is when the action happened: the dispatch instant for Run
	// events, the issue instant for send events, the effect instant for
	// deliver events, the window end for utilisation samples.
	Time sim.Time
	// Dur is the run length (Run events), end-to-end latency (deliver and
	// steal-grant events) or in-window busy time (utilisation samples).
	Dur sim.Time
	// Wait is the ready-to-dispatch delay of Run events.
	Wait sim.Time
	// Node is the node the event is accounted to.
	Node NodeID
	// Peer is the other endpoint of a communication, or NoPeer.
	Peer NodeID
	// Bytes is the payload size of communication events.
	Bytes int
	// Kind identifies the action.
	Kind EventKind
	// Cause qualifies Run events (what made the work ready).
	Cause Cause
}

// Tracer receives the event stream of a run. simrt invokes it from the
// single simulation goroutine in deterministic order; livert invokes it
// concurrently from every node's executor, so implementations must be
// safe for concurrent use.
type Tracer interface {
	Event(Event)
}

// Sink is where a run's events go: the Tracer SinkOf was given, or nowhere
// for the zero Sink of an untraced run.
type Sink struct{ t Tracer }

// SinkOf returns the sink that hands events to t; a nil t makes the zero
// Sink.
func SinkOf(t Tracer) Sink { return Sink{t} }

// On reports whether a tracer is installed. Emitting needs no guard; an
// event that costs work to build asks first.
func (s Sink) On() bool { return s.t != nil }

// Event hands ev to the tracer, if one is installed.
func (s Sink) Event(ev Event) {
	if s.t != nil {
		s.t.Event(ev)
	}
}

// BatchTracer is the optional second half of Tracer. An engine that holds
// a finished run's whole stream (simrt sorts it canonically first) hands it
// over in one EventBatch call instead of len(evs) Event calls.
//
// The slice is in emission order with cap == len, and it is read-only from
// the moment of the call — for the engine, which keeps no reference, and for
// every tracer it reaches, because a fan-out passes one slice to several. A
// tracer may keep the slice; it must not write to its elements.
type BatchTracer interface {
	Tracer
	EventBatch(evs []Event)
}

// EmitBatch hands evs to t: whole when t is a BatchTracer, event by event
// otherwise.
func EmitBatch(t Tracer, evs []Event) {
	if bt, ok := t.(BatchTracer); ok {
		bt.EventBatch(evs)
		return
	}
	for i := range evs {
		t.Event(evs[i])
	}
}
