// Package protocol defines the contract shared by all five consensus
// engines in this repository (CAESAR, EPaxos, Multi-Paxos, Mencius and
// M2Paxos), plus what they all run on: the Runtime, whose one goroutine
// steps an engine's events in order. An engine is its state and a step
// function — step(now, ev), handed every message, Submission, Tick and
// engine-internal event together with the instant it is handled at; the
// Runtime it embeds owns everything else (transport handler, inbox, the
// loop goroutine and its ticker, clock, loopback, a new → running →
// stopped lifecycle safe under concurrent Start and Stop) and is where the
// engine's Start, Stop, Submit, Post, Step, Send and Broadcast come from. A message an engine
// sends itself never reaches the transport: Step steps it before
// returning. No engine reads a clock, so whoever calls Step — the Runtime
// in production, a test or a simulator directly — owns its time.
// The engines with no client table of their own share Pending.
//
// Every engine is a replicated state machine: clients Submit commands to any
// replica, the engine orders them through its agreement protocol, and each
// replica applies the decided commands to its local Applier. The Submit
// callback fires once the command has been executed at the replica that
// proposed it — that is the "ordering and processing" latency measured by
// the paper's evaluation.
//
// Below the engine there are two statically typed roles. The per-group
// chain (Applier) is what one group's engine delivers into, through
// ApplyDeferred alone; internal/stack composes it from layers (the
// rebalance gate, the write-ahead log) that each take a chain and return
// one. A synchronous layer (TimestampedApplier: the commit table's
// interception, the batch unpacker, the store) applies before returning,
// and Sync makes a chain of one. The only runtime probe left is CAESAR's,
// once at construction: is its chain also a synchronous layer?
package protocol

import (
	"errors"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// Result is the outcome of executing one command.
type Result struct {
	// Value is the application-level return (e.g. the read value of a
	// GET). Nil for writes.
	Value []byte
	// Err is non-nil when the command could not be completed, e.g. the
	// replica is shutting down or crashed before deciding.
	Err error
}

// DoneFunc receives the execution result of a submitted command. It is
// invoked from the replica's event loop and must not block.
type DoneFunc func(Result)

// Complete implements Completion: DoneFunc(f) is the Completion of a
// caller that needs a closure. A func value is pointer-shaped, so the
// conversion allocates nothing.
func (f DoneFunc) Complete(res Result) { f(res) }

// Completion is how an applier chain reports a delivered command's result:
// Complete is called exactly once, from any goroutine — on a chain's pass
// path (protocol.Sync, the rebalance gate letting a command through to a
// synchronous layer) on the event loop itself, before ApplyDeferred
// returns, so it must never block. An interface rather than a func lets
// the engine hand the chain a pointer to state it already holds (CAESAR's
// deliveries come from a chunk) instead of a closure per command.
type Completion interface {
	Complete(Result)
}

// ErrStopped is reported for commands that were still in flight when the
// replica shut down.
var ErrStopped = errors.New("protocol: replica stopped")

// Engine is a consensus-backed state machine replica.
type Engine interface {
	// Submit proposes a command on this replica. done (may be nil) fires
	// after local execution. Safe for concurrent use.
	Submit(cmd command.Command, done DoneFunc)
	// Start launches the replica's event loop.
	Start()
	// Stop terminates the event loop and fails in-flight submissions
	// with ErrStopped. Idempotent.
	Stop()
}

// Applier is the per-group delivery chain: what a node stack hands each
// consensus group's engine. The paper's DELIVER hands the state machine a
// command and its stable timestamp, and that is the one entry, so a layer
// that would drop the timestamp does not compile. The chain may complete a
// command past its delivery point: the rebalance gate (internal/rebalance)
// holds commands that reached their new consensus group before the group's
// state handoff finished, without blocking delivery of later, unrelated
// commands, and the write-ahead log (internal/wal) completes every command
// after the fsync that covers its record, from goroutines of its own, so
// the event loop never waits for the disk. The client's DoneFunc fires when
// the chain completes the command.
type Applier interface {
	// ApplyDeferred executes cmd, decided at ts within its engine's
	// timestamp space, now or later, and reports its result through
	// done.Complete: exactly once, from any goroutine — on the event loop,
	// before ApplyDeferred returns, when the chain completes at once (the
	// gate's pass path into Sync). A Result carrying Err means the command
	// was not applied.
	ApplyDeferred(cmd command.Command, ts timestamp.Timestamp, done Completion)
}

// TimestampedApplier is a synchronous layer: ApplyAt executes cmd, decided
// at ts, and returns its application-level result. The four baselines,
// which agree on no timestamp, deliver into one at timestamp.Zero, from a
// single goroutine per replica in decision order.
type TimestampedApplier interface {
	ApplyAt(cmd command.Command, ts timestamp.Timestamp) []byte
}

// TimestampedAtomicApplier is the node state machine: the bottom of
// every group's chain and the target the cross-shard commit table and
// the batch unpacker execute units against. ApplyAllAt runs cmds in
// order as one indivisible unit — no concurrent reader of the state
// observes a strict subset of its effects — all decided at ts, so a
// version-recording store (internal/kvstore's MVCC ring, behind
// internal/reads) stamps every write of a transaction with its one
// merged timestamp and snapshot reads see it all-or-nothing.
type TimestampedAtomicApplier interface {
	TimestampedApplier
	ApplyAllAt(cmds []command.Command, ts timestamp.Timestamp) [][]byte
}

// Sync returns the chain that ends in layer: each delivery is applied and
// completed before ApplyDeferred returns. The chain is also layer's
// TimestampedApplier, so CAESAR applies it directly.
func Sync(layer TimestampedApplier) Applier { return syncChain{layer} }

type syncChain struct{ TimestampedApplier }

func (s syncChain) ApplyDeferred(cmd command.Command, ts timestamp.Timestamp, done Completion) {
	done.Complete(Result{Value: s.ApplyAt(cmd, ts)})
}

// ApplierFunc adapts a function that ignores timestamps to both a chain
// and a synchronous layer (tests, microbenchmarks).
type ApplierFunc func(cmd command.Command) []byte

// ApplyAt implements TimestampedApplier.
func (f ApplierFunc) ApplyAt(cmd command.Command, _ timestamp.Timestamp) []byte { return f(cmd) }

// ApplyDeferred implements Applier; it completes before returning.
func (f ApplierFunc) ApplyDeferred(cmd command.Command, _ timestamp.Timestamp, done Completion) {
	done.Complete(Result{Value: f(cmd)})
}
