package rebalance

import (
	"context"
	"errors"
	"fmt"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/flight"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/shard"
	"github.com/caesar-consensus/caesar/internal/xshard"
)

// ErrResizeInProgress rejects a resize initiated while another transition
// is still completing on this node.
var ErrResizeInProgress = errors.New("rebalance: a resize is already in progress")

// ErrResizeConflict reports that a concurrently initiated resize won the
// epoch: the deployment was resized, but to the winner's shard count.
var ErrResizeConflict = errors.New("rebalance: a concurrent resize won the epoch")

// maxEpochRetries bounds re-proposals of a command that keeps landing
// behind resize fences; exceeding it means the deployment is resizing
// continuously, and the client sees the retry error rather than waiting
// forever.
const maxEpochRetries = 8

// Engine layers live resizing over the cross-shard engine: submissions
// pass through (picking up automatic re-proposal when a resize kills a
// straddling transaction), and Resize drives an epoch change end to end.
type Engine struct {
	x  *xshard.Engine
	co *Coordinator
}

var _ protocol.Engine = (*Engine)(nil)

// NewEngine wires the resize layer over the cross-shard engine. Every
// group of x must apply commands through co.Applier (outermost) so fences
// and epoch checks intercept deliveries.
func NewEngine(x *xshard.Engine, co *Coordinator) *Engine {
	e := &Engine{x: x, co: co}
	co.bind(x, e.Submit)
	return e
}

// Coordinator returns the node's rebalance coordinator.
func (e *Engine) Coordinator() *Coordinator { return e.co }

// Shards returns the current epoch's shard count.
func (e *Engine) Shards() int { return e.co.Shards() }

// Submit implements protocol.Engine. A transaction killed because it
// straddled a resize marker (xshard.ErrEpochRetry) is re-proposed under
// the new routing automatically, a bounded number of times — as is a
// submission that raced a shrink and reached a group after its
// retirement (shard.ErrNoGroup): by then the router has moved on, so the
// retry routes to the key's live home.
func (e *Engine) Submit(cmd command.Command, done protocol.DoneFunc) {
	e.submit(cmd, done, 0)
}

func (e *Engine) submit(cmd command.Command, done protocol.DoneFunc, attempt int) {
	e.x.Submit(cmd, func(res protocol.Result) {
		retriable := errors.Is(res.Err, xshard.ErrEpochRetry) || errors.Is(res.Err, shard.ErrNoGroup)
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

// Start implements protocol.Engine.
func (e *Engine) Start() {
	e.x.Start()
	e.co.start()
}

// Stop implements protocol.Engine: the groups stop first (their in-flight
// submissions fail with ErrStopped), then the coordinator fails whatever
// deliveries were still gated. Idempotent.
func (e *Engine) Stop() {
	e.x.Stop()
	e.co.stop()
}

// Resize changes the deployment's consensus-group count to shards, live:
// it proposes the resize marker through group 0 — whose total order of
// fences decides the epoch cluster-wide — propagates it to every other
// existing group, and waits until this node's transition completes (every
// fence delivered, every source group's state handed off). Other nodes
// complete on their own as their fences deliver; survivors re-propose
// missing fences, so a crashed initiator cannot wedge the transition.
//
// Returns nil when the resize completed locally, ErrResizeConflict when a
// concurrent resize won the epoch (the deployment resized, but to the
// winner's count), ErrResizeInProgress when called mid-transition, or the
// context's error. A no-op resize (shards == current) returns nil
// immediately.
func (e *Engine) Resize(ctx context.Context, shards int) error {
	if shards < 1 {
		return fmt.Errorf("rebalance: invalid shard count %d", shards)
	}
	co := e.co
	co.mu.Lock()
	if co.pending != nil {
		co.mu.Unlock()
		return ErrResizeInProgress
	}
	if shards == co.shards {
		co.mu.Unlock()
		return nil
	}
	m := Marker{Epoch: co.epoch + 1, Shards: int32(shards), PrevShards: int32(co.shards)}
	co.mu.Unlock()
	co.cfg.Flight.Eventf(flight.KindResize,
		"resize initiated here: epoch %d, %d -> %d group(s)", m.Epoch, m.PrevShards, m.Shards)

	fence, err := FenceCommand(m)
	if err != nil {
		return err
	}
	// Decide: group 0 serializes competing resizes.
	if err := e.submitFence(ctx, 0, fence); err != nil {
		return err
	}
	co.mu.Lock()
	won := co.epochShards[m.Epoch] == m.Shards
	co.mu.Unlock()
	if !won {
		return ErrResizeConflict
	}
	// Fence the remaining old groups (the sweeper finishes this if we
	// crash or a submission is lost).
	errs := make(chan error, int(m.PrevShards))
	for g := 1; g < int(m.PrevShards); g++ {
		go func(g int) { errs <- e.submitFence(ctx, g, fence) }(g)
	}
	for g := 1; g < int(m.PrevShards); g++ {
		if err := <-errs; err != nil && ctx.Err() != nil {
			return err
		}
	}
	// Hand off: wait for the local transition to finish. The waiter
	// channel also closes when the coordinator stops mid-transition, so
	// completion is re-checked from state, not inferred from the wakeup.
	select {
	case <-co.WaitEpoch(m.Epoch):
	case <-ctx.Done():
		return ctx.Err()
	}
	co.mu.Lock()
	completed := co.epoch >= m.Epoch && co.pending == nil
	co.mu.Unlock()
	if !completed {
		return protocol.ErrStopped
	}
	return nil
}

// submitFence proposes the fence to one group and waits for its local
// delivery.
func (e *Engine) submitFence(ctx context.Context, group int, fence command.Command) error {
	ch := make(chan protocol.Result, 1)
	e.x.Inner().SubmitTo(group, fence, func(res protocol.Result) { ch <- res })
	select {
	case res := <-ch:
		return res.Err
	case <-ctx.Done():
		return ctx.Err()
	}
}
