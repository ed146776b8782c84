// Package protocol defines the contract shared by all five consensus
// engines in this repository (CAESAR, EPaxos, Multi-Paxos, Mencius and
// M2Paxos), plus what they all run on: the single-goroutine event loop
// (Loop) and the one Runtime around it. An engine is its state and a step
// function — step(now, ev), handed every message, Submission, Tick and
// engine-internal event together with the instant it is handled at; the
// Runtime it embeds owns everything else (transport handler, loop
// goroutine, ticker, clock, loopback, a new → running → stopped lifecycle
// safe under concurrent Start and Stop) and is where the engine's Start,
// Stop, Submit, Step, Send and Broadcast come from. A message an engine
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
// Below the engine there are two statically typed roles. The node state
// machine (TimestampedAtomicApplier: the store behind the batch unpacker)
// executes single commands and atomic units at their decided timestamps.
// The per-group chain (TimestampedApplier) is what one group's engine
// delivers into; internal/stack composes it from layers that each take a
// chain and return one, ending at the state machine. The only runtime
// probe left is asking, once at construction, whether a chain is also a
// DeferringApplier: the engine about the chain it delivers into, and a
// layer that forwards deferral about the chain below it (Deferring).
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

// Applier is the deterministic state machine commands are executed
// against, as an engine without agreed timestamps (the four baselines,
// ApplierFunc in tests and microbenchmarks) sees it.
type Applier interface {
	// Apply executes cmd and returns its application-level result.
	// It is called from a single goroutine per replica, in decision
	// order.
	Apply(cmd command.Command) []byte
}

// TimestampedApplier is the per-group delivery chain: what a node stack
// hands each consensus group's engine. Every layer of the chain — the
// rebalance gate, the write-ahead log, the cross-shard commit table —
// takes one and returns one, so the decided timestamp (the only thing the
// paper's DELIVER hands the state machine besides the command) reaches
// the store through static types; a layer that would drop it does not
// compile. Apply is the entry for engines that agree on no timestamp and
// is ApplyAt at timestamp.Zero.
type TimestampedApplier interface {
	Applier
	// ApplyAt executes cmd, which was decided at ts within its engine's
	// timestamp space.
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

// DeferringApplier is the one optional facet of a chain, and the only
// one an engine probes for (once, at construction): a chain that may
// postpone a command's execution past its delivery point. The engine
// hands it the command plus a completion callback instead of expecting a
// synchronous return, and the client's DoneFunc fires when the applier
// completes the command. The live rebalancing gate (internal/rebalance)
// uses this to hold commands that reached their new consensus group
// before the group's state handoff finished — delivery of later,
// unrelated commands is never blocked — and the write-ahead log
// (internal/wal) to complete every command after the fsync that covers
// its record, from goroutines of its own, so the event loop never waits
// for the disk. Appliers must call done exactly once, from any goroutine; a
// Result carrying Err means the command was not applied.
type DeferringApplier interface {
	Applier
	// ApplyDeferred executes cmd — now or later — and reports its result
	// through done. ts is the command's decided timestamp.
	ApplyDeferred(cmd command.Command, ts timestamp.Timestamp, done func(Result))
}

// Deferring returns chain's deferring facet: chain itself when it is a
// DeferringApplier, otherwise an adapter that applies synchronously and
// completes before returning. A layer that forwards deferral to the chain
// below it (the rebalance gate above the write-ahead log) resolves this
// once, at construction, and calls ApplyDeferred unconditionally.
func Deferring(chain TimestampedApplier) DeferringApplier {
	if d, ok := chain.(DeferringApplier); ok {
		return d
	}
	return syncDeferrer{chain}
}

// syncDeferrer completes every deferred apply synchronously.
type syncDeferrer struct{ TimestampedApplier }

func (s syncDeferrer) ApplyDeferred(cmd command.Command, ts timestamp.Timestamp, done func(Result)) {
	done(Result{Value: s.ApplyAt(cmd, ts)})
}

// ApplierFunc adapts a function to the Applier interface.
type ApplierFunc func(cmd command.Command) []byte

// Apply implements Applier.
func (f ApplierFunc) Apply(cmd command.Command) []byte { return f(cmd) }
