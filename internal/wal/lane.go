package wal

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/trace"
)

// lane completes one consensus group's durable entries, in append order,
// on a goroutine of its own: groups own disjoint keys, so their applies
// may overlap, and a state machine that takes time occupies its group's
// lane alone. The syncer feeds the lanes after each sync and never waits
// for one; nothing an event loop waits for runs on a lane.
type lane struct {
	mu sync.Mutex
	// queue holds the entries handed over and not yet taken; spare is the
	// backing array of the batch taken before, reused for the next one.
	queue []pendingRec
	spare []pendingRec
	// busy counts the entries of the batch being completed. queuedSince
	// and busySince say when the oldest entry of queue and of that batch
	// joined the log (to the resolution of the sync that carried it).
	busy        int
	queuedSince time.Time
	busySince   time.Time
	wake        chan struct{}
}

// meet is an entry that completes on several lanes at once — a
// transaction on the lanes of the groups whose keys it writes, a snapshot
// cut on all of them. Every lane stops at it, the last to arrive runs the
// entry, and all move on when it has: the entry keeps its log position in
// each lane's order. Lanes reach their meets in log order, so two meets
// cannot wait for each other.
type meet struct {
	lanes []*lane
	left  atomic.Int32
	done  chan struct{}
}

func newMeet(lanes []*lane) *meet {
	m := &meet{lanes: lanes, done: make(chan struct{})}
	m.left.Store(int32(len(lanes)))
	return m
}

// laneLocked returns group's lane, starting it (and those of the groups
// below it) on first use. A lane that starts while a snapshot cut is
// outstanding holds only entries behind the cut, and waits for it.
// Callers hold l.mu.
func (l *Log) laneLocked(group int32) *lane {
	for int(group) >= len(l.lanes) {
		ln := &lane{wake: make(chan struct{}, 1)}
		if cut := l.cut; cut != nil {
			ln.queue = append(ln.queue, pendingRec{fn: func(error) { <-cut.done }})
		}
		l.lanes = append(l.lanes, ln)
		l.lanesDone.Add(1)
		go l.runLane(ln)
	}
	return l.lanes[group]
}

// lanesLocked resolves a transaction's participant groups to their lanes;
// a transaction that names none meets on every lane. Callers hold l.mu.
func (l *Log) lanesLocked(groups []int32) []*lane {
	if len(groups) == 0 {
		l.laneLocked(0) // a meet needs someone to arrive
		return append([]*lane(nil), l.lanes...)
	}
	lanes := make([]*lane, 0, len(groups))
	for _, g := range groups {
		// A lane listed twice would wait at the meet for itself.
		if ln := l.laneLocked(g); !slices.Contains(lanes, ln) {
			lanes = append(lanes, ln)
		}
	}
	return lanes
}

// push hands e, carried by a sync whose oldest record joined at since,
// to the lane.
func (ln *lane) push(e *pendingRec, since time.Time) {
	ln.mu.Lock()
	if len(ln.queue) == 0 {
		ln.queuedSince = since
	}
	ln.queue = append(ln.queue, *e)
	ln.mu.Unlock()
	select {
	case ln.wake <- struct{}{}:
	default:
	}
}

// runLane completes what the lane is handed until Close closes wake.
func (l *Log) runLane(ln *lane) {
	defer l.lanesDone.Done()
	for range ln.wake {
		for {
			ln.mu.Lock()
			batch := ln.queue
			if len(batch) == 0 {
				ln.mu.Unlock()
				break
			}
			ln.queue, ln.spare = ln.spare, nil
			ln.busy, ln.busySince = len(batch), ln.queuedSince
			ln.mu.Unlock()

			for i := range batch {
				l.complete(&batch[i])
			}

			clear(batch) // drop the commands and callbacks the entries pinned
			ln.mu.Lock()
			ln.spare, ln.busy = batch[:0], 0
			ln.mu.Unlock()
		}
	}
}

// complete finishes one entry on its lane. A command whose record is
// durable is traced, applied and acknowledged, in that order; one whose
// record is not (e.err) is reported and never applied — it is treated
// exactly like a command delivered an instant after a crash.
func (l *Log) complete(e *pendingRec) {
	switch {
	case e.meet != nil:
		if e.meet.left.Add(-1) == 0 {
			e.fn(e.err)
			close(e.meet.done)
		}
		<-e.meet.done
	case e.inner == nil:
		e.fn(e.err)
	case e.err != nil:
		e.done(protocol.Result{Err: e.err})
	default:
		l.opts.Trace.Record(l.opts.Self, trace.KindFsync, e.cmd.ID, e.ts)
		e.done(protocol.Result{Value: e.inner.ApplyAt(e.cmd, e.ts)})
	}
}

// backlog reports how many entries the lane holds and how long the oldest
// has been in the log.
func (ln *lane) backlog(now time.Time) (n int, oldest time.Duration) {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	n = ln.busy + len(ln.queue)
	switch {
	case ln.busy > 0:
		oldest = now.Sub(ln.busySince)
	case len(ln.queue) > 0:
		oldest = now.Sub(ln.queuedSince)
	}
	return n, oldest
}
