package caesar

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/caesar-consensus/caesar/internal/audit"
	"github.com/caesar-consensus/caesar/internal/batch"
	"github.com/caesar-consensus/caesar/internal/caesar"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/flight"
	"github.com/caesar-consensus/caesar/internal/kvstore"
	"github.com/caesar-consensus/caesar/internal/metrics"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/reads"
	"github.com/caesar-consensus/caesar/internal/rebalance"
	"github.com/caesar-consensus/caesar/internal/shard"
	"github.com/caesar-consensus/caesar/internal/stack"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/transport"
	"github.com/caesar-consensus/caesar/internal/xshard"
)

// Command is a state-machine command. Two commands conflict when they
// access the same key and at least one writes it; CAESAR totally orders
// conflicting commands and leaves commuting ones unordered.
type Command struct {
	// Kind selects the operation.
	Kind Op
	// Key is the accessed key.
	Key string
	// Value is the written payload (puts only).
	Value []byte
}

// Op enumerates command kinds.
type Op uint8

// Supported operations.
const (
	// OpPut writes Value under Key.
	OpPut Op = iota + 1
	// OpGet reads Key.
	OpGet
	// OpAdd atomically adds Delta to Key's integer value and returns
	// the new value (big-endian int64).
	OpAdd
)

// Put builds a write command.
func Put(key string, value []byte) Command {
	return Command{Kind: OpPut, Key: key, Value: value}
}

// Get builds a read command.
func Get(key string) Command {
	return Command{Kind: OpGet, Key: key}
}

// Add builds an atomic-increment command; the returned value of Propose is
// the post-increment big-endian int64.
func Add(key string, delta int64) Command {
	return Command{Kind: OpAdd, Key: key, Value: encodeInt(delta)}
}

// DecodeInt converts a value returned by Get/Add on an integer key.
func DecodeInt(b []byte) int64 {
	if len(b) != 8 {
		return 0
	}
	return int64(binary.BigEndian.Uint64(b))
}

func encodeInt(v int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	return b[:]
}

// Stats is a snapshot of a node's protocol counters.
type Stats struct {
	// Executed is the number of commands applied locally.
	Executed int64
	// FastDecisions and SlowDecisions split the decisions this node
	// took as command leader by path (two vs four communication
	// delays).
	FastDecisions int64
	SlowDecisions int64
	// MeanLatency is the mean proposer-observed latency.
	MeanLatency time.Duration
}

// ErrClosed is returned for proposals on a closed node.
var ErrClosed = errors.New("caesar: node closed")

// ErrTxAborted is returned for cross-shard transactions killed by the
// commit layer (e.g. the coordinating node failed before every consensus
// group received its participant piece). An aborted transaction is applied
// nowhere.
var ErrTxAborted = xshard.ErrAborted

// ErrResizeInProgress is returned by Resize while another resize is still
// completing.
var ErrResizeInProgress = rebalance.ErrResizeInProgress

// ErrResizeConflict is returned when a concurrently initiated resize won
// the epoch: the deployment was resized, but to the winner's shard count.
var ErrResizeConflict = rebalance.ErrResizeConflict

// Node is one CAESAR replica with an embedded key-value store. It runs one
// or more independent consensus groups (WithShards) and routes each
// command to its key's group; Resize changes the group count live.
type Node struct {
	id     timestamp.NodeID
	stk    *stack.Stack
	engine protocol.Engine
	co     *rebalance.Coordinator
	store  *kvstore.Store
	reads  *reads.Engine
	met    *metrics.Recorder
	closed atomic.Bool
}

// Options tunes a node; the zero value is production defaults.
type Options struct {
	// HeartbeatInterval drives the failure detector; negative disables
	// failure handling (testing only). Default 100ms.
	HeartbeatInterval time.Duration
	// SuspectTimeout is the silence threshold before a peer is
	// suspected and its commands recovered. Default 1s.
	SuspectTimeout time.Duration
	// RetransmitAfter is how long a command leader waits for a missing
	// delivery acknowledgement before re-sending the decision — the
	// catch-up path a restarted replica relearns missed commands
	// through. Default 1s; negative disables.
	RetransmitAfter time.Duration
	// Trace, when non-nil, records every protocol milestone of this node
	// — from proposal through fsync to client acknowledgement — into the
	// given ring buffer. Cheap enough to leave on in production.
	Trace *Trace
	// OnDivergence fires when a cross-replica audit (Cluster.Audit, a
	// background auditor enabled with WithAuditInterval, or an external
	// caesar-audit feeding a server's collector) proves this node is
	// involved in an applied-state divergence. The bundle names the
	// group, epoch, frontier and both digests. It runs on the auditing
	// goroutine and must not block. The flight-journal event and the
	// caesar_audit_divergence_total counter fire regardless.
	OnDivergence func(Divergence)
}

// newNode wires a node's consensus groups — one replica per group,
// multiplexed over the endpoint, under the cross-shard commit and live
// rebalancing layers, and with a data dir under the durable write-ahead
// log — to the transport; used by Cluster. The actual layering lives in
// internal/stack, which cmd/caesar-server and bench/ build through
// directly; every shard shares the node's store, recorder, commit
// table, rebalance coordinator and log, so Stats and Read report
// whole-node aggregates regardless of the shard count, multi-key
// transactions spanning groups commit atomically instead of failing, and
// Resize changes the group count live. With a data dir, a node built from
// a previous incarnation's directory recovers its state before joining.
// Every node runs the stack's stall watchdog at its defaults (10s
// threshold, 1s scans) and a 1,024-event flight recorder.
func newNode(ep transport.Endpoint, opts Options, shards int, dataDir string) (*Node, error) {
	met := metrics.NewRecorder()
	rec := flight.New(ep.Self(), 1024)
	scfg := stack.Config{
		Shards:    shards,
		Metrics:   met,
		Trace:     opts.Trace.inner(),
		DataDir:   dataDir,
		Rebalance: true,
		Flight:    rec,
		Build: stack.CaesarEngine(caesar.Config{
			HeartbeatInterval: opts.HeartbeatInterval,
			SuspectTimeout:    opts.SuspectTimeout,
			RetransmitAfter:   opts.RetransmitAfter,
			Trace:             opts.Trace.inner(),
			Metrics:           met,
			Flight:            rec,
		}),
	}
	if opts.OnDivergence != nil {
		onDiv := opts.OnDivergence
		scfg.OnDivergence = func(d audit.Divergence) { onDiv(fromDivergence(d)) }
	}
	stk, err := stack.Build(ep, scfg)
	if err != nil {
		return nil, err
	}
	n := &Node{
		id:     ep.Self(),
		stk:    stk,
		engine: stk.Engine,
		co:     stk.Coordinator,
		store:  stk.Store,
		reads:  stk.Reads,
		met:    met,
	}
	stk.Start()
	return n, nil
}

// ID returns the node's identifier.
func (n *Node) ID() int { return int(n.id) }

// toInner converts a public command to its consensus representation. The
// value is copied: a command's bytes are immutable from submission on —
// the history, the log, every in-process replica and the store share them
// — and the caller's buffer stays the caller's.
func toInner(cmd Command) (command.Command, error) {
	switch cmd.Kind {
	case OpPut:
		return command.Put(cmd.Key, bytes.Clone(cmd.Value)), nil
	case OpGet:
		return command.Get(cmd.Key), nil
	case OpAdd:
		return command.Command{Op: command.OpAdd, Key: cmd.Key, Value: bytes.Clone(cmd.Value)}, nil
	default:
		return command.Command{}, fmt.Errorf("caesar: unknown command kind %d", cmd.Kind)
	}
}

// submitWait proposes one consensus command and waits for local execution.
func (n *Node) submitWait(ctx context.Context, inner command.Command) ([]byte, error) {
	ch := make(chan protocol.Result, 1)
	n.engine.Submit(inner, func(res protocol.Result) { ch <- res })
	select {
	case res := <-ch:
		return res.Value, res.Err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Propose submits a command to the replicated state machine through this
// node and waits for its execution here. It returns the command's result
// (the read value for gets, nil for puts); the returned slice belongs to
// the caller. The node copies cmd.Value before submitting it, so the
// caller may reuse its buffer once Propose returns.
func (n *Node) Propose(ctx context.Context, cmd Command) ([]byte, error) {
	if n.closed.Load() {
		return nil, ErrClosed
	}
	inner, err := toInner(cmd)
	if err != nil {
		return nil, err
	}
	val, err := n.submitWait(ctx, inner)
	return bytes.Clone(val), err
}

// ProposeTx submits several commands as one atomic transaction and waits
// for its execution on this node: all of them are applied as one
// indivisible unit on every replica, or none are (ErrTxAborted). When every
// key routes to one consensus group — always, on a one-group node — the
// transaction is an ordinary batch command; when its keys span groups it
// commits through the cross-shard layer, executing at the merged (max) of
// the groups' stable timestamps. Cross-shard transactions are atomic but
// not strictly serializable against each other; see the package
// documentation.
//
// Error semantics: nil means applied everywhere, ErrTxAborted means
// applied nowhere. Any other error (context cancellation, a node shutting
// down mid-submit) leaves the outcome UNKNOWN — the transaction may still
// commit after the error is returned, so callers must not blindly retry a
// non-idempotent transaction on such errors.
func (n *Node) ProposeTx(ctx context.Context, cmds []Command) error {
	if n.closed.Load() {
		return ErrClosed
	}
	if len(cmds) == 0 {
		return nil
	}
	inners := make([]command.Command, len(cmds))
	for i, cmd := range cmds {
		inner, err := toInner(cmd)
		if err != nil {
			return err
		}
		inners[i] = inner
	}
	if len(inners) == 1 {
		_, err := n.submitWait(ctx, inners[0])
		return err
	}
	packed, err := batch.Pack(inners)
	if err != nil {
		return err
	}
	_, err = n.submitWait(ctx, packed)
	return err
}

// Read serves a linearizable read of key from this node, off the
// consensus path (internal/reads): the read is stamped with the key's
// consensus-group logical clock and answered from the local store the
// moment every conflicting command below the stamp has been applied here
// — no proposal, no quorum round-trip, no log record. A client that
// writes and reads through one node always reads its own writes, and
// successive reads of a key through one node never go backwards; see the
// package documentation's read model for the precise guarantee. Reads
// racing a live Resize retry internally under a consistent epoch. The
// returned value is nil for an absent key (like Propose of a Get) and
// belongs to the caller.
func (n *Node) Read(ctx context.Context, key string) ([]byte, error) {
	if n.closed.Load() {
		return nil, ErrClosed
	}
	val, _, err := n.reads.Read(ctx, key)
	return bytes.Clone(val), err
}

// ReadTx serves a snapshot read of several keys — possibly spanning
// consensus groups — at one merged read timestamp, without proposing or
// writing transaction pieces: a consistent cut of the store in which an
// atomic transaction's writes (ProposeTx) appear for all of its keys or
// for none. Values align with keys; absent keys read nil. The returned
// slices belong to the caller. Like Read, the snapshot is served locally
// after the groups' delivery frontiers pass the read point and every held
// cross-shard transaction on the keys has settled.
func (n *Node) ReadTx(ctx context.Context, keys []string) ([][]byte, error) {
	if n.closed.Load() {
		return nil, ErrClosed
	}
	if len(keys) == 0 {
		return nil, nil
	}
	vals, _, err := n.reads.ReadTx(ctx, keys)
	for i, v := range vals {
		vals[i] = bytes.Clone(v)
	}
	return vals, err
}

// Stats snapshots the node's counters.
func (n *Node) Stats() Stats {
	return Stats{
		Executed:      n.met.Executed.Load(),
		FastDecisions: n.met.FastDecisions.Load(),
		SlowDecisions: n.met.SlowDecisions.Load(),
		MeanLatency:   n.met.Latency.Mean(),
	}
}

// Shards returns the number of consensus groups this node currently runs
// (WithShards at first, 1 without it; live resizes move it).
func (n *Node) Shards() int { return n.co.Shards() }

// Resize changes this deployment's consensus-group count to shards, live:
// no command is lost or reordered, keys whose home group changes are
// handed off under a consensus-ordered resize marker, and every node
// switches routing at the same point of each group's delivery order. Only
// ~1/(G+1) of the keyspace moves per added group (jump consistent
// hashing); traffic on migrating keys stalls for at most one handoff
// round, everything else flows uninterrupted.
//
// Resize returns once the transition completes on this node; peers
// complete on their own as the markers deliver (survivors finish the
// propagation if this node crashes mid-resize). It returns
// ErrResizeInProgress when a transition is already running,
// ErrResizeConflict when a concurrently initiated resize won (the
// deployment resized, but to the winner's count), and an error, before
// anything is proposed, for a count outside [1, 4096]. A cluster built
// without WithShards resizes like any other: it starts at one group.
func (n *Node) Resize(ctx context.Context, shards int) error {
	if n.closed.Load() {
		return ErrClosed
	}
	return n.co.Resize(ctx, shards)
}

// Close stops the replica: engines first (quiescing deliveries), then —
// on a durable node — the write-ahead log, whose acknowledged tail is
// already fsynced. In-flight proposals fail. Safe for concurrent use with
// Propose/ProposeTx (a proposal racing Close fails with ErrClosed or the
// engine's stop error).
func (n *Node) Close() {
	if !n.closed.CompareAndSwap(false, true) {
		return
	}
	n.stk.Stop()
}

// ShardOf returns the consensus group a key is routed to in a deployment
// with the given shard count. Clients can use it to place related keys on
// one shard; it is stable under growth (raising shards from G to G+1 moves
// only ~1/(G+1) of the keyspace).
func ShardOf(key string, shards int) int {
	return shard.NewRouter(shards).Shard(key)
}
