package shard

import (
	"errors"
	"sync"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/transport"
)

// ErrNoGroup is reported for submissions routed to a shard whose group is
// retired (or was never created) on this node — a transient condition
// during a live resize, terminal otherwise.
var ErrNoGroup = errors.New("shard: no live group for shard")

// BuildFunc constructs the consensus engine of one shard on its logical
// endpoint. Called once per shard at Engine construction and again for
// every group a live resize adds; the applier and metrics each shard
// should use are captured by the closure, letting callers share one store
// and recorder per node or keep them per-shard. The engine it returns must
// have the lifecycle enginetest's Lifecycle case checks (every engine on a
// protocol.Runtime does): a Stop before Start is final, which is what lets
// EnsureGroups start a new group without fencing against a racing Stop.
type BuildFunc func(shard int, ep transport.Endpoint) protocol.Engine

// Engine runs G independent consensus groups behind the protocol.Engine
// interface: every submission is routed to its key's group, so commands on
// different shards are agreed and executed fully in parallel, while
// same-key (conflicting) commands keep their group's total order. The
// group set and the router are dynamic: the live rebalancing layer
// (internal/rebalance) installs a new epoch's router and adds or retires
// groups while traffic flows.
type Engine struct {
	mu     sync.RWMutex
	router Router
	groups []protocol.Engine // nil entries are retired shards
	build  BuildFunc
	mux    *Mux

	started bool
	stopped bool
}

var _ protocol.Engine = (*Engine)(nil)

// NewAt builds a sharded engine over one shared endpoint: a Mux gives each
// shard a tagged logical channel, and build constructs each group on its
// channel. Stop closes the endpoint. The group instances attach at the
// given per-group mux generations — the routing epochs the groups were
// most recently created at. A node restarting into a previously resized
// deployment must match the generations its peers' mux slots run, or its
// outbound traffic would be dropped as stale (and inbound buffered for a
// generation that never attaches). gens[i] is group i's generation; a
// fresh deployment is all zeros.
func NewAt(ep transport.Endpoint, gens []int32, build BuildFunc) *Engine {
	mux := NewMux(ep, len(gens))
	groups := make([]protocol.Engine, len(gens))
	for s := range groups {
		groups[s] = build(s, mux.Attach(s, gens[s]))
	}
	return &Engine{router: NewRouter(len(groups)), groups: groups, build: build, mux: mux}
}

// Router returns the engine's current key → shard map (a snapshot: the
// rebalancing layer may install a newer epoch at any time).
func (e *Engine) Router() Router {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.router
}

// SetRouter installs a new routing epoch. Submissions routed after this
// call carry the new router's epoch stamp.
func (e *Engine) SetRouter(r Router) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.router = r
}

// Shards returns the number of shard slots (live or retired).
func (e *Engine) Shards() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.groups)
}

// LiveShards returns the number of live (non-retired) groups.
func (e *Engine) LiveShards() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	n := 0
	for _, g := range e.groups {
		if g != nil {
			n++
		}
	}
	return n
}

// Group returns the i-th shard's engine, for per-shard inspection; nil for
// a retired or out-of-range shard.
func (e *Engine) Group(i int) protocol.Engine {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if i < 0 || i >= len(e.groups) {
		return nil
	}
	return e.groups[i]
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
	for s := 0; s < n; s++ {
		if s < len(e.groups) && e.groups[s] != nil {
			continue
		}
		ep := e.mux.Attach(s, gen)
		g := e.build(s, ep)
		for s >= len(e.groups) {
			e.groups = append(e.groups, nil)
		}
		e.groups[s] = g
		added = append(added, g)
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

// RetireFrom stops and detaches every group with shard index >= n. Their
// mux slots drop in-flight traffic from now on; a later EnsureGroups with
// a higher generation can revive them.
func (e *Engine) RetireFrom(n int) {
	e.mu.Lock()
	var victims []protocol.Engine
	var slots []int
	for s := n; s < len(e.groups); s++ {
		if e.groups[s] != nil {
			victims = append(victims, e.groups[s])
			slots = append(slots, s)
			e.groups[s] = nil
		}
	}
	e.mu.Unlock()
	for _, g := range victims {
		g.Stop()
	}
	for _, s := range slots {
		e.mux.Retire(s)
	}
}

// SubmitTo proposes cmd on one specific group, bypassing routing. The
// rebalancing layer uses it for fences and the cross-shard coordinator for
// participant pieces; callers stamp cmd.Epoch themselves from the router
// snapshot they routed with.
func (e *Engine) SubmitTo(shard int, cmd command.Command, done protocol.DoneFunc) {
	g := e.Group(shard)
	if g == nil {
		if done != nil {
			done(protocol.Result{Err: ErrNoGroup})
		}
		return
	}
	g.Submit(cmd, done)
}

// Submit implements protocol.Engine: the command is routed by its key and
// proposed on that shard's group, stamped with the routing epoch used.
// Keyless commands (noops/barriers) conflict with nothing in particular
// and everything in spirit — they are submitted to every live group so a
// barrier flushes the whole deployment, not just shard 0. Multi-key
// commands spanning shards fail with ErrCrossShard; internal/xshard layers
// an atomic cross-group commit over this engine for those.
func (e *Engine) Submit(cmd command.Command, done protocol.DoneFunc) {
	e.mu.RLock()
	router := e.router
	e.mu.RUnlock()
	if len(cmd.Keys()) == 0 && e.LiveShards() > 1 {
		// The rare keyless broadcast is the only caller that needs the
		// live-group count; keyed submissions stay O(1).
		e.submitAll(cmd, done)
		return
	}
	s, err := router.Route(cmd)
	if err != nil {
		if done != nil {
			done(protocol.Result{Err: err})
		}
		return
	}
	cmd.Epoch = router.Epoch()
	e.SubmitTo(s, cmd, done)
}

// submitAll proposes one copy of cmd on every live group (each group's
// replica assigns the copy its own command ID). done fires once, after
// every group has executed its copy locally; the first error wins.
func (e *Engine) submitAll(cmd command.Command, done protocol.DoneFunc) {
	e.mu.RLock()
	var groups []protocol.Engine
	for _, g := range e.groups {
		if g != nil {
			groups = append(groups, g)
		}
	}
	e.mu.RUnlock()
	if len(groups) == 0 {
		if done != nil {
			done(protocol.Result{Err: ErrNoGroup})
		}
		return
	}
	var (
		mu        sync.Mutex
		remaining = len(groups)
		firstErr  error
	)
	for _, g := range groups {
		g.Submit(cmd, func(res protocol.Result) {
			mu.Lock()
			if res.Err != nil && firstErr == nil {
				firstErr = res.Err
			}
			remaining--
			last := remaining == 0
			err := firstErr
			mu.Unlock()
			if last && done != nil {
				done(protocol.Result{Err: err})
			}
		})
	}
}

// Start implements protocol.Engine.
func (e *Engine) Start() {
	e.mu.Lock()
	e.started = true
	groups := make([]protocol.Engine, len(e.groups))
	copy(groups, e.groups)
	e.mu.Unlock()
	for _, g := range groups {
		if g != nil {
			g.Start()
		}
	}
}

// Stop implements protocol.Engine: it stops every group, then releases the
// shared endpoint. Idempotent, like the groups it wraps.
func (e *Engine) Stop() {
	e.mu.Lock()
	e.stopped = true
	groups := make([]protocol.Engine, len(e.groups))
	copy(groups, e.groups)
	e.mu.Unlock()
	for _, g := range groups {
		if g != nil {
			g.Stop()
		}
	}
	_ = e.mux.Close()
}
