package xshard

import (
	"errors"
	"sort"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/shard"
)

// maxEpochRetries bounds re-proposals of a command that keeps landing
// behind resize fences; exceeding it means the deployment is resizing
// continuously, and the client sees the retry error rather than waiting
// forever.
const maxEpochRetries = 8

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
// the same table.
func New(inner *shard.Engine, table *Table) *Engine {
	table.bind(inner.SubmitTo)
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
//
// A transaction killed because it straddled a resize marker
// (ErrEpochRetry) is re-proposed under the new routing automatically, a
// bounded number of times — as is a submission that raced a shrink and
// reached a group after its retirement (shard.ErrNoGroup): by then the
// router has moved on, so the retry routes to the key's live home.
func (e *Engine) Submit(cmd command.Command, done protocol.DoneFunc) {
	e.submit(cmd, done, 0)
}

func (e *Engine) submit(cmd command.Command, done protocol.DoneFunc, attempt int) {
	e.route(cmd, func(res protocol.Result) {
		retriable := errors.Is(res.Err, ErrEpochRetry) || errors.Is(res.Err, shard.ErrNoGroup)
		if retriable && attempt < maxEpochRetries {
			fresh := cmd
			fresh.ID = command.ID{}
			e.submit(fresh, done, attempt+1)
			return
		}
		if done != nil {
			done(res)
		}
	})
}

// route places one submission: a keyless barrier on every group, a
// single-group command on its group, a transaction across its groups.
func (e *Engine) route(cmd command.Command, done protocol.DoneFunc) {
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
