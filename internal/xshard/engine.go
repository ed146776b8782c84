package xshard

import (
	"errors"
	"slices"
	"sync"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/shard"
	"github.com/caesar-consensus/caesar/internal/transport"
)

// maxEpochRetries bounds re-proposals of a command that keeps landing
// behind resize fences; exceeding it means the deployment is resizing
// continuously, and the client sees the retry error rather than waiting
// forever.
const maxEpochRetries = 8

// ErrNoGroup is reported for submissions routed to a group that is
// retired (or was never created) on this node — a transient condition
// during a live resize, terminal otherwise.
var ErrNoGroup = errors.New("xshard: no live group for shard")

// BuildFunc constructs the consensus engine of one group on its logical
// endpoint. Called once per group at construction and again for every
// group a live resize adds; the applier and metrics each group should use
// are captured by the closure. The engine it returns must have the
// lifecycle enginetest's Lifecycle case checks (every engine on a
// protocol.Runtime does): a Stop before Start is final, which is what lets
// EnsureGroups start a new group without fencing against a racing Stop.
type BuildFunc func(group int, ep transport.Endpoint) protocol.Engine

// Engine is a sharded node's submission engine: G independent consensus
// groups behind one protocol.Engine. A command is routed by its keys to
// one group, so commands on different groups are agreed and executed in
// parallel while same-key (conflicting) commands keep their group's total
// order; a keyless command goes to group 0. A multi-key command whose keys
// span groups is split into per-group participant pieces and committed
// atomically through the node's commit table. The group set and the
// router are dynamic: the live rebalancing layer (internal/rebalance)
// installs a new epoch's router and adds or retires groups while traffic
// flows.
type Engine struct {
	table *Table
	build BuildFunc
	mux   *shard.Mux

	mu      sync.RWMutex
	router  shard.Router
	groups  []protocol.Engine // nil entries are retired groups
	started bool
	stopped bool
}

var _ protocol.Engine = (*Engine)(nil)

// NewEngine builds a sharded engine over one shared endpoint: a shard.Mux
// gives each group a tagged logical channel, and build constructs each
// group on its channel. A group must apply commands through
// table.Applier for cross-group commands to commit: that is where their
// pieces and markers reach the table. Stop closes the endpoint. The group instances attach at the given per-group mux
// generations — the routing epochs the groups were most recently created
// at. A node restarting into a previously resized deployment must match
// the generations its peers' mux slots run, or its outbound traffic would
// be dropped as stale (and inbound buffered for a generation that never
// attaches). gens[i] is group i's generation; a fresh deployment is all
// zeros.
func NewEngine(ep transport.Endpoint, gens []int32, table *Table, build BuildFunc) *Engine {
	mux := shard.NewMux(ep, len(gens))
	groups := make([]protocol.Engine, len(gens))
	for g := range groups {
		groups[g] = build(g, mux.Attach(g, gens[g]))
	}
	e := &Engine{table: table, build: build, mux: mux, router: shard.NewRouter(len(groups)), groups: groups}
	table.submit = e.SubmitTo
	return e
}

// Router returns the engine's current key → group map (a snapshot: the
// rebalancing layer may install a newer epoch at any time).
func (e *Engine) Router() shard.Router {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.router
}

// SetRouter installs a new routing epoch. Submissions routed after this
// call carry the new router's epoch stamp.
func (e *Engine) SetRouter(r shard.Router) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.router = r
}

// EnsureGroups grows the engine to at least n groups, building the new
// ones at generation gen (the routing epoch of the resize creating them)
// and starting them if the engine runs. Revives retired slots too. It is
// idempotent: existing live groups are untouched.
func (e *Engine) EnsureGroups(n int, gen int32) error {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return protocol.ErrStopped
	}
	var added []protocol.Engine
	for g := 0; g < n; g++ {
		if g < len(e.groups) && e.groups[g] != nil {
			continue
		}
		eng := e.build(g, e.mux.Attach(g, gen))
		for g >= len(e.groups) {
			e.groups = append(e.groups, nil)
		}
		e.groups[g] = eng
		added = append(added, eng)
	}
	started := e.started
	e.mu.Unlock()
	if started {
		// A Stop racing this growth may sweep the new groups before they
		// start; a group's Stop is final, so its Start then does nothing.
		for _, g := range added {
			g.Start()
		}
	}
	return nil
}

// RetireFrom stops and detaches every group with index >= n. Their mux
// slots drop in-flight traffic from now on; a later EnsureGroups with a
// higher generation can revive them.
func (e *Engine) RetireFrom(n int) {
	e.mu.Lock()
	var victims []protocol.Engine
	var slots []int
	for g := n; g < len(e.groups); g++ {
		if e.groups[g] != nil {
			victims = append(victims, e.groups[g])
			slots = append(slots, g)
			e.groups[g] = nil
		}
	}
	e.mu.Unlock()
	for _, g := range victims {
		g.Stop()
	}
	for _, g := range slots {
		e.mux.Retire(g)
	}
}

// SubmitTo proposes cmd on one specific group, bypassing routing, or
// fails it with ErrNoGroup when that group is not live. The rebalancing
// layer uses it for fences, the commit table for abort markers and
// Submit for everything it routes; callers stamp cmd.Epoch themselves
// from the router snapshot they routed with.
func (e *Engine) SubmitTo(group int, cmd command.Command, done protocol.DoneFunc) {
	g := e.group(group)
	if g == nil {
		if done != nil {
			done(protocol.Result{Err: ErrNoGroup})
		}
		return
	}
	g.Submit(cmd, done)
}

// group returns the live engine of one group, or nil.
func (e *Engine) group(group int) protocol.Engine {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if group >= 0 && group < len(e.groups) {
		return e.groups[group]
	}
	return nil
}

// Submit implements protocol.Engine. done fires after local execution: for
// a cross-shard command that is the atomic application of the whole
// transaction on this node, or ErrAborted if it was killed. Routing works
// against one router snapshot, so everything a submission produces —
// the single-group command or every participant piece of a transaction —
// is stamped with one routing epoch; a resize fence racing the submission
// invalidates the whole set together, never a subset.
//
// A submission that raced a shrink and found its group retired
// (ErrNoGroup) is routed again, a bounded number of times: by then the
// router has moved on, so the retry finds the key's live home. A
// single-group command learns that from the group lookup, before it is
// proposed, so it goes to its group with done itself. A transaction killed
// because it straddled a resize marker (ErrEpochRetry) is re-proposed
// under the new routing the same way, from the one callback the commit
// table fires for it.
func (e *Engine) Submit(cmd command.Command, done protocol.DoneFunc) {
	e.submit(cmd, done, 0)
}

func (e *Engine) submit(cmd command.Command, done protocol.DoneFunc, attempt int) {
	for ; ; attempt++ {
		router := e.Router()
		home, ok := router.Home(cmd)
		if !ok {
			e.submitCross(router, cmd, done, attempt)
			return
		}
		// A single group (or a keyless command, which the router homes in
		// group 0): the common fast path.
		if g := e.group(home); g != nil {
			cmd.Epoch = router.Epoch()
			g.Submit(cmd, done)
			return
		}
		if attempt >= maxEpochRetries {
			if done != nil {
				done(protocol.Result{Err: ErrNoGroup})
			}
			return
		}
	}
}

// submitCross splits the transaction under one router snapshot and
// proposes one piece per touched group. The client callback is parked in
// the commit table; it fires when the last local piece delivery completes
// the transaction, or retries the submission when the transaction died of
// a resize.
func (e *Engine) submitCross(router shard.Router, cmd command.Command, done protocol.DoneFunc, attempt int) {
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
	groups, err := partition(router, ops)
	if err != nil {
		fail(err) // a single member spanning groups stays unsupported
		return
	}

	xid := e.table.nextXID()
	// One payload serves every group — the Piece is identical across
	// participants, only the key stamping differs.
	payload := encodePiece(xid, groups, ops)
	e.table.Expect(xid, groups, ops, payload, router.Epoch(), func(res protocol.Result) {
		retriable := errors.Is(res.Err, ErrEpochRetry) || errors.Is(res.Err, ErrNoGroup)
		if retriable && attempt < maxEpochRetries {
			again := cmd
			again.ID = command.ID{}
			e.submit(again, done, attempt+1)
			return
		}
		if done != nil {
			done(res)
		}
	})
	pieceDone := func(res protocol.Result) {
		if res.Err != nil {
			e.table.pieceFailed(xid, res.Err)
		}
	}
	for _, g := range groups {
		pc := pieceCommand(payload, groupKeys(router, ops, g))
		pc.Epoch = router.Epoch()
		e.SubmitTo(int(g), pc, pieceDone)
	}
}

// Start implements protocol.Engine. Transactions stuck past their
// deadline resolve only when something calls the table's Resolve — the
// node stack's maintenance loop.
func (e *Engine) Start() {
	for _, g := range e.mark(&e.started) {
		g.Start()
	}
}

// Stop implements protocol.Engine: the groups stop first, then the shared
// endpoint is released and the table fails whatever was still in flight.
// Idempotent, like the groups it wraps.
func (e *Engine) Stop() {
	for _, g := range e.mark(&e.stopped) {
		g.Stop()
	}
	_ = e.mux.Close()
	e.table.stopAndFail()
}

// mark sets one lifecycle flag and returns the live groups as of then.
func (e *Engine) mark(flag *bool) []protocol.Engine {
	e.mu.Lock()
	defer e.mu.Unlock()
	*flag = true
	return slices.DeleteFunc(slices.Clone(e.groups), func(g protocol.Engine) bool { return g == nil })
}
