package xshard

import (
	"sort"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/shard"
)

// Engine wraps a sharded engine with the cross-shard coordinator: keyless
// and single-group submissions pass straight through, while a multi-key
// command whose keys span groups is split into per-group participant
// pieces and committed atomically through the node's commit table instead
// of being rejected with shard.ErrCrossShard.
type Engine struct {
	inner *shard.Engine
	table *Table
}

var _ protocol.Engine = (*Engine)(nil)

// New wires the coordinator over the sharded engine. Every group of inner
// must apply commands through table.Applier so pieces and markers reach
// the same table. The default epoch resolver ignores the epoch and
// answers with the engine's current router — exact until a live resize
// happens, at which point the rebalancing layer rebinds it with real
// epoch history (Table.SetRouterAt).
func New(inner *shard.Engine, table *Table) *Engine {
	table.bind(
		func(uint32) shard.Router { return inner.Router() },
		func(g int, cmd command.Command, done protocol.DoneFunc) {
			inner.SubmitTo(g, cmd, done)
		})
	return &Engine{inner: inner, table: table}
}

// Inner returns the wrapped sharded engine.
func (e *Engine) Inner() *shard.Engine { return e.inner }

// Table returns the node's commit table.
func (e *Engine) Table() *Table { return e.table }

// Submit implements protocol.Engine. done fires after local execution: for
// a cross-shard command that is the atomic application of the whole
// transaction on this node, or ErrAborted if it was killed. Routing works
// against one router snapshot, so everything a submission produces —
// the single-group command or every participant piece of a transaction —
// is stamped with one routing epoch; a resize fence racing the submission
// invalidates the whole set together, never a subset.
func (e *Engine) Submit(cmd command.Command, done protocol.DoneFunc) {
	if len(cmd.Keys()) == 0 {
		e.inner.Submit(cmd, done) // keyless barrier: broadcast to every group
		return
	}
	router := e.inner.Router()
	if g, err := router.Route(cmd); err == nil {
		cmd.Epoch = router.Epoch()
		e.inner.SubmitTo(g, cmd, done) // single group: the common fast path
		return
	}
	e.submitCross(router, cmd, done)
}

// submitCross splits the transaction under one router snapshot and
// proposes one piece per touched group. The client callback is parked in
// the commit table; it fires when the last local piece delivery completes
// the transaction.
func (e *Engine) submitCross(router shard.Router, cmd command.Command, done protocol.DoneFunc) {
	fail := func(err error) {
		if done != nil {
			done(protocol.Result{Err: err})
		}
	}
	ops, err := memberOps(cmd)
	if err != nil {
		fail(err)
		return
	}
	parts, err := partition(router, ops)
	if err != nil {
		fail(err) // a single member spanning groups stays unsupported
		return
	}
	groups := make([]int32, 0, len(parts))
	for g := range parts {
		groups = append(groups, int32(g))
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i] < groups[j] })

	xid := e.table.nextXID()
	// One payload serves every group — the Piece is identical across
	// participants, only the key stamping differs.
	payload := encodePiece(xid, groups, ops)
	e.table.Expect(xid, groups, ops, router.Epoch(), done)
	for _, g := range groups {
		pc := pieceWithPayload(payload, parts[int(g)])
		pc.Epoch = router.Epoch()
		e.inner.SubmitTo(int(g), pc, func(res protocol.Result) {
			if res.Err != nil {
				e.table.pieceFailed(xid, res.Err)
			}
		})
	}
}

// Start implements protocol.Engine.
func (e *Engine) Start() {
	e.inner.Start()
	e.table.start()
}

// Stop implements protocol.Engine: the groups stop first, then the table
// fails whatever was still in flight. Idempotent.
func (e *Engine) Stop() {
	e.inner.Stop()
	e.table.stopAndFail()
}
