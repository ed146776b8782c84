package caesar

import (
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

// ErrNotSharded is returned by Resize on a node built without WithShards:
// an unsharded deployment has no router to re-epoch.
var ErrNotSharded = errors.New("caesar: node is not sharded (build the cluster with WithShards)")

// ErrResizeInProgress is returned by Resize while another resize is still
// completing.
var ErrResizeInProgress = rebalance.ErrResizeInProgress

// ErrResizeConflict is returned when a concurrently initiated resize won
// the epoch: the deployment was resized, but to the winner's shard count.
var ErrResizeConflict = rebalance.ErrResizeConflict

// Node is one CAESAR replica with an embedded key-value store. With
// WithShards it runs several independent consensus groups and routes each
// command to its key's group; Resize changes the group count live.
type Node struct {
	id     timestamp.NodeID
	stk    *stack.Stack
	engine protocol.Engine
	co     *rebalance.Coordinator // nil on unsharded nodes
	store  *kvstore.Store
	reads  *reads.Engine
	met    *metrics.Recorder
	shards int
	closed atomic.Bool
}

// Options tunes a node; the zero value is production defaults.
type Options struct {
	// FastQuorumTimeout is how long a leader waits for a fast quorum
	// before falling back to the slow proposal phase. Default 400ms.
	FastQuorumTimeout time.Duration
	// HeartbeatInterval drives the failure detector; negative disables
	// failure handling (testing only). Default 100ms.
	HeartbeatInterval time.Duration
	// SuspectTimeout is the silence threshold before a peer is
	// suspected and its commands recovered. Default 1s.
	SuspectTimeout time.Duration
	// DisableGC retains all command metadata (debugging only).
	DisableGC bool
	// DataDir enables the durable write-ahead log (internal/wal): every
	// acknowledged command is fsynced (group commit — many decisions,
	// one sync) before its client learns the result, and a node rebuilt
	// from the same directory replays snapshot + log tail, rejoins the
	// cluster and continues with exactly-once application intact. Empty
	// keeps the node purely in memory.
	DataDir string
	// RetransmitAfter is how long a command leader waits for a missing
	// delivery acknowledgement before re-sending the decision — the
	// catch-up path a restarted replica relearns missed commands
	// through. Default 1s; negative disables.
	RetransmitAfter time.Duration
	// Trace, when non-nil, records every protocol milestone of this node
	// — from proposal through fsync to client acknowledgement — into the
	// given ring buffer. Cheap enough to leave on in production.
	Trace *Trace
	// SlowCommandThreshold, when > 0, logs the full traced history of any
	// command proposed through this node whose submit-to-ack latency
	// exceeds it (the slow-command log). Most useful together with Trace.
	SlowCommandThreshold time.Duration
	// FlightBuffer caps the node's always-on flight recorder — the bounded
	// journal of node-level events (recovery, suspects, retransmits,
	// resizes, snapshots, watchdog trips) behind Node.FlightLog and the
	// watchdog's bundles. <= 0 selects the default (1024 events).
	FlightBuffer int
	// StallThreshold arms the node's stall watchdog: when positive, a
	// background scanner samples the oldest held cross-shard transaction,
	// the oldest parked read fence and the oldest unacknowledged command
	// against this threshold, and on a trip assembles a diagnosis bundle
	// (Node.Diagnose, OnStall, the server's /debugz). Zero disables the
	// watchdog; Diagnose then reports only the flight log.
	StallThreshold time.Duration
	// WatchdogInterval paces the watchdog's scans. Default 1s.
	WatchdogInterval time.Duration
	// OnStall fires once per healthy→stalled transition with the
	// watchdog's diagnosis. It runs on the scanning goroutine and must
	// not block; hand the bundle off if handling is slow.
	OnStall func(Diagnosis)
	// OnDivergence fires when a cross-replica audit (Cluster.Audit, a
	// background auditor enabled with WithAuditInterval, or an external
	// caesar-audit feeding a server's collector) proves this node is
	// involved in an applied-state divergence. The bundle names the
	// group, epoch, frontier and both digests. It runs on the auditing
	// goroutine and must not block. The flight-journal event and the
	// caesar_audit_divergence_total counter fire regardless.
	OnDivergence func(Divergence)
}

func (o Options) toConfig() caesar.Config {
	cfg := caesar.Config{
		FastTimeout:       o.FastQuorumTimeout,
		HeartbeatInterval: o.HeartbeatInterval,
		SuspectTimeout:    o.SuspectTimeout,
		RetransmitAfter:   o.RetransmitAfter,
		Trace:             o.Trace.inner(),
		SlowThreshold:     o.SlowCommandThreshold,
	}
	if o.DisableGC {
		cfg.GCInterval = -1
	}
	return cfg
}

// newNode wires a replica — or, with shards > 1, a sharded set of replicas
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
func newNode(ep transport.Endpoint, opts Options, shards int) (*Node, error) {
	met := metrics.NewRecorder()
	cfg := opts.toConfig()
	cfg.Metrics = met
	rec := flight.New(ep.Self(), opts.FlightBuffer)
	cfg.Flight = rec
	scfg := stack.Config{
		Shards:           shards,
		Metrics:          met,
		Trace:            opts.Trace.inner(),
		DataDir:          opts.DataDir,
		Rebalance:        true,
		Flight:           rec,
		StallThreshold:   opts.StallThreshold,
		WatchdogInterval: opts.WatchdogInterval,
		Build:            stack.CaesarEngine(cfg),
	}
	if opts.OnStall != nil {
		onStall := opts.OnStall
		scfg.OnStall = func(d *flight.Diagnosis) { onStall(Diagnosis{inner: d}) }
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
		shards: stk.Shards,
	}
	stk.Start()
	return n, nil
}

// ID returns the node's identifier.
func (n *Node) ID() int { return int(n.id) }

// toInner converts a public command to its consensus representation.
func toInner(cmd Command) (command.Command, error) {
	switch cmd.Kind {
	case OpPut:
		return command.Put(cmd.Key, cmd.Value), nil
	case OpGet:
		return command.Get(cmd.Key), nil
	case OpAdd:
		return command.Command{Op: command.OpAdd, Key: cmd.Key, Value: cmd.Value}, nil
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
// (the read value for gets, nil for puts).
func (n *Node) Propose(ctx context.Context, cmd Command) ([]byte, error) {
	if n.closed.Load() {
		return nil, ErrClosed
	}
	inner, err := toInner(cmd)
	if err != nil {
		return nil, err
	}
	return n.submitWait(ctx, inner)
}

// ProposeTx submits several commands as one atomic transaction and waits
// for its execution on this node: all of them are applied as one
// indivisible unit on every replica, or none are (ErrTxAborted). On an
// unsharded node — or when every key routes to one consensus group — the
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
// returned value is nil for an absent key (like Propose of a Get).
func (n *Node) Read(ctx context.Context, key string) ([]byte, error) {
	if n.closed.Load() {
		return nil, ErrClosed
	}
	val, _, err := n.reads.Read(ctx, key)
	return val, err
}

// ReadTx serves a snapshot read of several keys — possibly spanning
// consensus groups — at one merged read timestamp, without proposing or
// writing transaction pieces: a consistent cut of the store in which an
// atomic transaction's writes (ProposeTx) appear for all of its keys or
// for none. Values align with keys; absent keys read nil. Like Read, the
// snapshot is served locally after the groups' delivery frontiers pass
// the read point and every held cross-shard transaction on the keys has
// settled.
func (n *Node) ReadTx(ctx context.Context, keys []string) ([][]byte, error) {
	if n.closed.Load() {
		return nil, ErrClosed
	}
	if len(keys) == 0 {
		return nil, nil
	}
	vals, _, err := n.reads.ReadTx(ctx, keys)
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
// (1 unless the cluster was built with WithShards; live resizes move it).
func (n *Node) Shards() int {
	if n.co != nil {
		return n.co.Shards()
	}
	return n.shards
}

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
// deployment resized, but to the winner's count), and ErrNotSharded on a
// node built without WithShards.
func (n *Node) Resize(ctx context.Context, shards int) error {
	if n.closed.Load() {
		return ErrClosed
	}
	if n.co == nil {
		return ErrNotSharded
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
