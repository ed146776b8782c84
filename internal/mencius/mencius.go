// Package mencius implements the Mencius baseline (Mao, Junqueira,
// Marzullo — OSDI 2008) as evaluated in §VI of the CAESAR paper: a
// multi-leader protocol that pre-assigns consensus slots to nodes
// round-robin. Node i owns slots {i, i+N, i+2N, ...} and proposes its
// commands in its own slots; when it observes a higher occupied slot it
// skips its earlier unused slots so the log can advance.
//
// Delivery executes the log in slot order, which requires learning the
// status (value or skip) of every lower slot from every node — this is why
// Mencius "performs as the slowest node" (§II) and why the CAESAR paper
// uses quorum-based protocols in geo-scale instead.
package mencius

import (
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/metrics"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/quorum"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/transport"
)

// Config tunes a Replica.
type Config struct {
	// Metrics receives measurements; nil allocates a private recorder.
	Metrics *metrics.Recorder
}

// Wire messages.
type (
	// Accept proposes Cmd in Slot (owned by the sender).
	Accept struct {
		Slot uint64
		Cmd  command.Command
	}
	// AcceptOK acknowledges an Accept to the slot owner.
	AcceptOK struct {
		Slot uint64
	}
	// Commit finalises the value of Slot.
	Commit struct {
		Slot uint64
		Cmd  command.Command
	}
	// SkipTo announces that every slot owned by the sender below Slot
	// that it has not proposed in is skipped (a decided no-op).
	SkipTo struct {
		Slot uint64
	}
)

// slotState is a slot's lifecycle at one replica.
type slotState uint8

const (
	slotEmpty slotState = iota
	slotAccepted
	slotCommitted
)

type slot struct {
	state slotState
	cmd   command.Command
}

// Replica is one Mencius node. Start, Stop and Submit are the embedded
// runtime's: a submission is proposed in this node's next pre-assigned
// slot.
type Replica struct {
	*protocol.Runtime
	self timestamp.NodeID
	n    int
	cq   int
	cfg  Config
	app  protocol.TimestampedApplier
	met  *metrics.Recorder
	// now is the instant of the step being handled.
	now time.Time

	slots map[uint64]*slot
	// skipTo[o]: every slot owned by o below this bound without a
	// received Accept is skipped.
	skipTo map[timestamp.NodeID]uint64
	// ownNext is the next slot this node may propose in.
	ownNext uint64
	// maxSeen is the highest slot observed anywhere.
	maxSeen uint64
	acks    map[uint64]*quorum.Tracker
	execTo  uint64
	pending *protocol.Pending
}

var _ protocol.Engine = (*Replica)(nil)

// New builds a replica attached to the endpoint.
func New(ep transport.Endpoint, app protocol.TimestampedApplier, cfg Config) *Replica {
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRecorder()
	}
	r := &Replica{
		self:    ep.Self(),
		n:       len(ep.Peers()),
		cq:      quorum.ClassicSize(len(ep.Peers())),
		cfg:     cfg,
		app:     app,
		met:     cfg.Metrics,
		slots:   make(map[uint64]*slot),
		skipTo:  make(map[timestamp.NodeID]uint64),
		acks:    make(map[uint64]*quorum.Tracker),
		pending: protocol.NewPending(ep.Self(), cfg.Metrics),
	}
	r.Runtime = protocol.NewRuntime(ep, nil, 0, r.step, r.pending.FailAll)
	r.ownNext = uint64(r.self)
	return r
}

// step handles one event at the instant now. Mencius has no timers.
func (r *Replica) step(now time.Time, ev protocol.Event) {
	r.now = now
	switch m := ev.Payload.(type) {
	case *protocol.Submission:
		r.onSubmit(r.pending.Register(now, m))
	case *Accept:
		r.onAccept(ev.From, m)
	case *AcceptOK:
		r.onAcceptOK(ev.From, m)
	case *Commit:
		r.onCommit(ev.From, m)
	case *SkipTo:
		r.onSkipTo(ev.From, m)
	}
}

// owner returns the node a slot is pre-assigned to.
func (r *Replica) owner(s uint64) timestamp.NodeID {
	return timestamp.NodeID(s % uint64(r.n))
}

func (r *Replica) onSubmit(cmd command.Command) {
	s := r.ownNext
	r.ownNext += uint64(r.n)
	r.setSlot(s, slotAccepted, cmd)
	acks := quorum.NewTracker(r.cq)
	acks.Add(int32(r.self))
	r.acks[s] = &acks
	if s > r.maxSeen {
		r.maxSeen = s
	}
	r.Broadcast(&Accept{Slot: s, Cmd: cmd})
}

func (r *Replica) setSlot(s uint64, st slotState, cmd command.Command) {
	sl := r.slots[s]
	if sl == nil {
		sl = &slot{}
		r.slots[s] = sl
	}
	if sl.state == slotCommitted && st != slotCommitted {
		return
	}
	sl.state = st
	sl.cmd = cmd
}

// onAccept stores the proposal, acknowledges it, and skips our own unused
// slots below it so the log keeps advancing (the Mencius skip rule).
func (r *Replica) onAccept(from timestamp.NodeID, m *Accept) {
	if from == r.self {
		return // handled at submit time
	}
	if m.Slot > r.maxSeen {
		r.maxSeen = m.Slot
	}
	r.setSlot(m.Slot, slotAccepted, m.Cmd)
	r.Send(from, &AcceptOK{Slot: m.Slot})
	r.skipOwnBelow(m.Slot)
	r.execute()
}

// skipOwnBelow advances this node's proposal horizon past bound, skipping
// the unused slots in between, and announces it.
func (r *Replica) skipOwnBelow(bound uint64) {
	if r.ownNext >= bound {
		return
	}
	// Smallest owned slot ≥ bound.
	next := bound - bound%uint64(r.n) + uint64(r.self)
	if next < bound {
		next += uint64(r.n)
	}
	r.ownNext = next
	r.Broadcast(&SkipTo{Slot: next})
}

func (r *Replica) onAcceptOK(from timestamp.NodeID, m *AcceptOK) {
	tr := r.acks[m.Slot]
	if tr == nil {
		return
	}
	tr.Add(int32(from))
	if !tr.Reached() {
		return
	}
	delete(r.acks, m.Slot)
	sl := r.slots[m.Slot]
	r.setSlot(m.Slot, slotCommitted, sl.cmd)
	r.Broadcast(&Commit{Slot: m.Slot, Cmd: sl.cmd})
	r.execute()
}

func (r *Replica) onCommit(from timestamp.NodeID, m *Commit) {
	if from == r.self {
		return
	}
	if m.Slot > r.maxSeen {
		r.maxSeen = m.Slot
	}
	r.setSlot(m.Slot, slotCommitted, m.Cmd)
	r.skipOwnBelow(m.Slot)
	r.execute()
}

func (r *Replica) onSkipTo(from timestamp.NodeID, m *SkipTo) {
	if m.Slot > r.skipTo[from] {
		r.skipTo[from] = m.Slot
	}
	r.execute()
}

// resolvedSkip reports whether slot s counts as a decided no-op.
func (r *Replica) resolvedSkip(s uint64) bool {
	o := r.owner(s)
	if o == r.self {
		// Our own slots: skipped if we advanced past them without
		// proposing.
		sl := r.slots[s]
		return s < r.ownNext && (sl == nil || sl.state == slotEmpty)
	}
	sl := r.slots[s]
	return s < r.skipTo[o] && (sl == nil || sl.state == slotEmpty)
}

// execute applies the log prefix in slot order.
func (r *Replica) execute() {
	for {
		s := r.execTo
		sl := r.slots[s]
		switch {
		case sl != nil && sl.state == slotCommitted:
			value := r.app.ApplyAt(sl.cmd, timestamp.Zero)
			r.met.Executed.Inc()
			r.met.Decided.Inc()
			r.pending.Complete(r.now, sl.cmd.ID, value)
			delete(r.slots, s)
		case r.resolvedSkip(s):
			delete(r.slots, s)
		default:
			return
		}
		r.execTo++
	}
}
