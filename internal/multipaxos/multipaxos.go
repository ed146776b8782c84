// Package multipaxos implements the single-leader Multi-Paxos baseline of
// the paper's evaluation (§VI): a designated stable leader sequences every
// command into a replicated log; followers forward submissions to it.
//
// The evaluation deploys it in two settings — leader close to a quorum
// (Multi-Paxos-IR, Ireland) and leader far from one (Multi-Paxos-IN,
// Mumbai) — so the leader site is a configuration knob. The steady-state
// protocol is phase-2 only (the leader's prepare phase is implicit in its
// static election), which is the standard production deployment the paper
// compares against; leader failover is out of scope here exactly as it is
// in the paper's non-faulty experiments.
package multipaxos

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
	// Leader is the node that sequences all commands.
	Leader timestamp.NodeID
	// Metrics receives measurements; nil allocates a private recorder.
	Metrics *metrics.Recorder
}

// Wire messages.
type (
	// Forward carries a follower's submission to the leader.
	Forward struct {
		Cmd command.Command
	}
	// Accept is the leader's phase-2a for one log index.
	Accept struct {
		Index uint64
		Cmd   command.Command
	}
	// AcceptOK is an acceptor's phase-2b.
	AcceptOK struct {
		Index uint64
	}
	// Commit announces that the log is decided up to and including
	// Index (the leader commits in index order).
	Commit struct {
		Index uint64
	}
)

// logEntry is one accepted log slot.
type logEntry struct {
	cmd command.Command
	ok  bool
}

// Replica is one Multi-Paxos node. Start, Stop and Submit are the embedded
// runtime's: non-leaders forward a submission to the leader.
type Replica struct {
	*protocol.Runtime
	n      int
	cq     int
	cfg    Config
	app    protocol.TimestampedApplier
	met    *metrics.Recorder
	leader bool
	// now is the instant of the step being handled.
	now time.Time

	log      []logEntry
	acks     map[uint64]*quorum.Tracker
	next     uint64 // leader: next index to assign
	commitTo uint64 // highest decided index + 1
	execTo   uint64 // highest executed index + 1
	pending  *protocol.Pending
}

var _ protocol.Engine = (*Replica)(nil)

// New builds a replica attached to the endpoint.
func New(ep transport.Endpoint, app protocol.TimestampedApplier, cfg Config) *Replica {
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRecorder()
	}
	r := &Replica{
		n:       len(ep.Peers()),
		cq:      quorum.ClassicSize(len(ep.Peers())),
		cfg:     cfg,
		app:     app,
		met:     cfg.Metrics,
		leader:  ep.Self() == cfg.Leader,
		acks:    make(map[uint64]*quorum.Tracker),
		pending: protocol.NewPending(ep.Self(), cfg.Metrics),
	}
	r.Runtime = protocol.NewRuntime(ep, nil, 0, r.step, r.pending.FailAll)
	return r
}

// step handles one event at the instant now. The steady-state protocol
// has no timers.
func (r *Replica) step(now time.Time, ev protocol.Event) {
	r.now = now
	switch m := ev.Payload.(type) {
	case *protocol.Submission:
		cmd := r.pending.Register(now, m)
		if r.leader {
			r.sequence(cmd)
		} else {
			r.Send(r.cfg.Leader, &Forward{Cmd: cmd})
		}
	case *Forward:
		r.onForward(m)
	case *Accept:
		r.onAccept(ev.From, m)
	case *AcceptOK:
		r.onAcceptOK(ev.From, m)
	case *Commit:
		r.onCommit(m)
	}
}

func (r *Replica) onForward(m *Forward) {
	if r.leader {
		r.sequence(m.Cmd)
	}
}

// sequence assigns the next log index and runs phase 2.
func (r *Replica) sequence(cmd command.Command) {
	idx := r.next
	r.next++
	acks := quorum.NewTracker(r.cq)
	r.acks[idx] = &acks
	r.Broadcast(&Accept{Index: idx, Cmd: cmd})
}

func (r *Replica) onAccept(from timestamp.NodeID, m *Accept) {
	for uint64(len(r.log)) <= m.Index {
		r.log = append(r.log, logEntry{})
	}
	r.log[m.Index] = logEntry{cmd: m.Cmd, ok: true}
	r.Send(from, &AcceptOK{Index: m.Index})
}

func (r *Replica) onAcceptOK(from timestamp.NodeID, m *AcceptOK) {
	tr := r.acks[m.Index]
	if tr == nil {
		return
	}
	tr.Add(int32(from))
	// Commit strictly in index order so Commit{i} implies everything
	// below i is decided and (by link FIFO) present.
	advanced := false
	for {
		next := r.acks[r.commitTo]
		if next == nil || !next.Reached() {
			break
		}
		delete(r.acks, r.commitTo)
		r.commitTo++
		advanced = true
	}
	if advanced {
		r.Broadcast(&Commit{Index: r.commitTo - 1})
	}
}

func (r *Replica) onCommit(m *Commit) {
	if m.Index+1 > r.commitTo {
		r.commitTo = m.Index + 1
	}
	r.execute()
}

// execute applies the decided prefix.
func (r *Replica) execute() {
	for r.execTo < r.commitTo && r.execTo < uint64(len(r.log)) && r.log[r.execTo].ok {
		cmd := r.log[r.execTo].cmd
		value := r.app.ApplyAt(cmd, timestamp.Zero)
		r.met.Executed.Inc()
		r.met.Decided.Inc()
		r.execTo++
		r.pending.Complete(r.now, cmd.ID, value)
	}
}
