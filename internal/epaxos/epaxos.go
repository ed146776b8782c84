// Package epaxos implements the EPaxos baseline (Moraru, Andersen,
// Kaminsky — SOSP 2013), the closest competitor in the CAESAR paper's
// evaluation (§VI). Every replica leads the commands submitted to it:
// a PreAccept round gathers interference attributes (a sequence number and
// a dependency set); if an optimized fast quorum of F+⌊(F+1)/2⌋ replicas
// answers with attributes identical to the leader's proposal, the command
// commits in two communication delays. Divergent attributes force a Paxos
// Accept round through a majority (the slow path, whose frequency tracks
// the conflict rate — Fig 10). Commands execute by analysing the dependency
// graph: strongly connected components in reverse topological order,
// ordered by sequence number within a component — the "complex delivery
// phase" whose cost grows with conflicts (§VI).
package epaxos

import (
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/failure"
	"github.com/caesar-consensus/caesar/internal/metrics"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/quorum"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/transport"
)

// InstanceID names one consensus instance: the Slot-th command led by
// Replica.
type InstanceID struct {
	Replica timestamp.NodeID
	Slot    uint64
}

// istatus is an instance's lifecycle state.
type istatus uint8

const (
	inone istatus = iota
	ipreaccepted
	iaccepted
	icommitted
	iexecuted
)

// Wire messages.
type (
	// PreAccept opens an instance with the leader's interference
	// attributes.
	PreAccept struct {
		Ballot uint32
		ID     InstanceID
		Cmd    command.Command
		Seq    uint64
		Deps   []InstanceID
	}
	// PreAcceptReply returns the acceptor's merged attributes; Changed
	// reports whether they differ from the leader's proposal (any
	// change forbids the fast path).
	PreAcceptReply struct {
		Ballot  uint32
		ID      InstanceID
		Seq     uint64
		Deps    []InstanceID
		Changed bool
	}
	// Accept is the slow-path Paxos accept with the union attributes.
	Accept struct {
		Ballot uint32
		ID     InstanceID
		Cmd    command.Command
		Seq    uint64
		Deps   []InstanceID
	}
	// AcceptReply acknowledges an Accept.
	AcceptReply struct {
		Ballot uint32
		ID     InstanceID
	}
	// Commit finalises an instance.
	Commit struct {
		ID   InstanceID
		Cmd  command.Command
		Seq  uint64
		Deps []InstanceID
	}
	// Prepare runs explicit-prepare recovery for an orphaned instance.
	Prepare struct {
		Ballot uint32
		ID     InstanceID
	}
	// PrepareReply reports the replier's view of the instance.
	PrepareReply struct {
		Ballot       uint32
		ID           InstanceID
		Status       istatus
		Cmd          command.Command
		Seq          uint64
		Deps         []InstanceID
		TupleBallot  uint32
		KnowsCommand bool
	}
	// Heartbeat feeds the failure detector.
	Heartbeat struct{}
)

// leadPhase is the leader-side phase of an instance.
type leadPhase uint8

const (
	leadPreAccept leadPhase = iota + 1
	leadAccept
)

// leaderState tracks an in-flight instance at its (current) leader.
type leaderState struct {
	phase    leadPhase
	votes    quorum.Tracker
	allEqual bool
	seq      uint64
	deps     map[InstanceID]struct{}
	slowPath bool
}

// instance is one slot of the two-dimensional EPaxos log.
type instance struct {
	id     InstanceID
	cmd    command.Command
	seq    uint64
	deps   []InstanceID
	status istatus
	ballot uint32
	lead   *leaderState
	// Tarjan bookkeeping (exec.go). dfsEpoch tells runs apart so an
	// aborted run leaves no stale marks.
	dfsEpoch          int
	dfsIndex, lowLink int
	onStack           bool
}

// Config tunes a Replica.
type Config struct {
	// HeartbeatInterval: default 100ms; negative disables failure
	// detection and recovery.
	HeartbeatInterval time.Duration
	// SuspectTimeout: default 10× HeartbeatInterval.
	SuspectTimeout time.Duration
	// RecoveryBackoff staggers takeover attempts. Default 150ms.
	RecoveryBackoff time.Duration
	// TickInterval is the timer granularity. Default 20ms.
	TickInterval time.Duration
	// Metrics receives measurements; nil allocates a private recorder.
	Metrics *metrics.Recorder
}

func (c Config) withDefaults() Config {
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 100 * time.Millisecond
	}
	if c.SuspectTimeout == 0 {
		c.SuspectTimeout = 10 * c.HeartbeatInterval
	}
	if c.RecoveryBackoff == 0 {
		c.RecoveryBackoff = 150 * time.Millisecond
	}
	if c.TickInterval == 0 {
		c.TickInterval = 20 * time.Millisecond
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRecorder()
	}
	return c
}

// keyInfo indexes interference per key: the latest instance of each replica
// touching the key, and the highest sequence number seen on it.
type keyInfo struct {
	latest map[timestamp.NodeID]uint64
	maxSeq uint64
}

// Replica is one EPaxos node. Start, Stop and Submit are the embedded
// runtime's.
type Replica struct {
	*protocol.Runtime
	self  timestamp.NodeID
	peers []timestamp.NodeID
	n     int
	cq    int
	fastQ int

	cfg Config
	app protocol.TimestampedApplier
	met *metrics.Recorder
	// now is the instant of the step being handled.
	now time.Time

	instances map[InstanceID]*instance
	conflicts map[string]*keyInfo
	nextSlot  uint64
	// execEpochCtr versions Tarjan runs (exec.go).
	execEpochCtr int

	// blockedExec maps an instance to the committed-but-unexecutable
	// instances waiting for it to commit (exec.go).
	blockedExec map[InstanceID][]InstanceID

	pending *protocol.Pending

	fd                *failure.Detector
	recoveries        map[InstanceID]*recoveryState
	scheduledRecovery map[InstanceID]time.Time
	lastHB            time.Time
}

var _ protocol.Engine = (*Replica)(nil)

// New builds a replica attached to the endpoint.
func New(ep transport.Endpoint, app protocol.TimestampedApplier, cfg Config) *Replica {
	cfg = cfg.withDefaults()
	peers := ep.Peers()
	n := len(peers)
	r := &Replica{
		self:              ep.Self(),
		peers:             peers,
		n:                 n,
		cq:                quorum.ClassicSize(n),
		fastQ:             quorum.EPaxosFastSize(n),
		cfg:               cfg,
		app:               app,
		met:               cfg.Metrics,
		instances:         make(map[InstanceID]*instance),
		conflicts:         make(map[string]*keyInfo),
		blockedExec:       make(map[InstanceID][]InstanceID),
		pending:           protocol.NewPending(ep.Self(), cfg.Metrics),
		recoveries:        make(map[InstanceID]*recoveryState),
		scheduledRecovery: make(map[InstanceID]time.Time),
	}
	r.Runtime = protocol.NewRuntime(ep, nil, cfg.TickInterval, r.step, r.pending.FailAll)
	if cfg.HeartbeatInterval > 0 {
		r.fd = failure.New(r.self, peers, cfg.SuspectTimeout, r.Now())
	}
	return r
}

// Metrics returns the replica's recorder.
func (r *Replica) Metrics() *metrics.Recorder { return r.met }

// step handles one event at the instant now; a *protocol.Submission makes
// this replica the command's leader.
func (r *Replica) step(now time.Time, ev protocol.Event) {
	r.now = now
	if ev.Remote && r.fd != nil {
		r.fd.Observe(ev.From, now)
	}
	switch m := ev.Payload.(type) {
	case *protocol.Submission:
		r.onSubmit(r.pending.Register(now, m))
	case protocol.Tick:
		r.onTick(now)
	case *PreAccept:
		r.onPreAccept(ev.From, m)
	case *PreAcceptReply:
		r.onPreAcceptReply(ev.From, m)
	case *Accept:
		r.onAccept(ev.From, m)
	case *AcceptReply:
		r.onAcceptReply(ev.From, m)
	case *Commit:
		r.onCommit(m)
	case *Prepare:
		r.onPrepare(ev.From, m)
	case *PrepareReply:
		r.onPrepareReply(ev.From, m)
	case *Heartbeat:
	}
}

// attributes computes (seq, deps) for cmd against the local interference
// index: deps are the latest interfering instance of every replica on every
// key the command touches, and seq exceeds every interfering sequence
// number.
func (r *Replica) attributes(cmd command.Command) (uint64, map[InstanceID]struct{}) {
	deps := make(map[InstanceID]struct{})
	var seq uint64
	for _, k := range cmd.Keys() {
		ki := r.conflicts[k]
		if ki == nil {
			continue
		}
		for rep, slot := range ki.latest {
			deps[InstanceID{Replica: rep, Slot: slot}] = struct{}{}
		}
		if ki.maxSeq >= seq {
			seq = ki.maxSeq
		}
	}
	return seq + 1, deps
}

// register records an instance in the interference index.
func (r *Replica) register(inst *instance) {
	for _, k := range inst.cmd.Keys() {
		ki := r.conflicts[k]
		if ki == nil {
			ki = &keyInfo{latest: make(map[timestamp.NodeID]uint64)}
			r.conflicts[k] = ki
		}
		if cur, ok := ki.latest[inst.id.Replica]; !ok || inst.id.Slot > cur {
			ki.latest[inst.id.Replica] = inst.id.Slot
		}
		if inst.seq > ki.maxSeq {
			ki.maxSeq = inst.seq
		}
	}
}

// getOrCreate returns the instance, creating an empty one if needed.
func (r *Replica) getOrCreate(id InstanceID) *instance {
	inst := r.instances[id]
	if inst == nil {
		inst = &instance{id: id}
		r.instances[id] = inst
	}
	return inst
}

// onSubmit runs the leader side of Phase 1 (PreAccept).
func (r *Replica) onSubmit(cmd command.Command) {
	id := InstanceID{Replica: r.self, Slot: r.nextSlot}
	r.nextSlot++
	seq, deps := r.attributes(cmd)
	inst := r.getOrCreate(id)
	inst.cmd = cmd
	inst.seq = seq
	inst.deps = depsSlice(deps)
	inst.status = ipreaccepted
	inst.lead = &leaderState{
		phase:    leadPreAccept,
		votes:    quorum.NewTracker(r.fastQ),
		allEqual: true,
		seq:      seq,
		deps:     deps,
	}
	inst.lead.votes.Add(int32(r.self))
	r.register(inst)
	r.Broadcast(&PreAccept{Ballot: inst.ballot, ID: id, Cmd: cmd, Seq: seq, Deps: inst.deps})
}

// onPreAccept is the acceptor side of Phase 1: merge local interference
// into the proposed attributes.
func (r *Replica) onPreAccept(from timestamp.NodeID, m *PreAccept) {
	if from == r.self {
		return // our own broadcast loopback; state was set when sending
	}
	inst := r.getOrCreate(m.ID)
	if inst.ballot > m.Ballot || inst.status >= icommitted {
		if inst.status >= icommitted {
			r.Send(from, &Commit{ID: m.ID, Cmd: inst.cmd, Seq: inst.seq, Deps: inst.deps})
		}
		return
	}
	localSeq, localDeps := r.attributes(m.Cmd)
	seq := m.Seq
	changed := false
	if localSeq > seq {
		seq = localSeq
		changed = true
	}
	deps := make(map[InstanceID]struct{}, len(m.Deps)+len(localDeps))
	for _, d := range m.Deps {
		deps[d] = struct{}{}
	}
	for d := range localDeps {
		if d == m.ID {
			continue
		}
		if _, ok := deps[d]; !ok {
			deps[d] = struct{}{}
			changed = true
		}
	}
	inst.cmd = m.Cmd
	inst.seq = seq
	inst.deps = depsSlice(deps)
	inst.status = ipreaccepted
	inst.ballot = m.Ballot
	r.register(inst)
	r.Send(from, &PreAcceptReply{Ballot: m.Ballot, ID: m.ID, Seq: seq, Deps: inst.deps, Changed: changed})
}

// onPreAcceptReply is the leader side of Phase 1 completion: the fast path
// needs a fast quorum of unchanged replies on the initial ballot; anything
// else goes through Accept.
func (r *Replica) onPreAcceptReply(from timestamp.NodeID, m *PreAcceptReply) {
	inst := r.instances[m.ID]
	if inst == nil || inst.lead == nil || inst.lead.phase != leadPreAccept || inst.ballot != m.Ballot {
		return
	}
	ls := inst.lead
	if !ls.votes.Add(int32(from)) {
		return
	}
	if m.Seq > ls.seq {
		ls.seq = m.Seq
	}
	for _, d := range m.Deps {
		ls.deps[d] = struct{}{}
	}
	if m.Changed {
		ls.allEqual = false
	}
	if inst.ballot > 0 {
		// Recovery ballots never take the fast path; a classic quorum
		// of pre-accepts suffices to move to Accept.
		if ls.votes.Count() >= r.cq {
			r.startAccept(inst)
		}
		return
	}
	if !ls.votes.Reached() {
		// The fast path may already be impossible; once a classic
		// quorum is in, fall back to Accept without waiting longer.
		if !ls.allEqual && ls.votes.Count() >= r.cq {
			r.startAccept(inst)
		}
		return
	}
	if ls.allEqual {
		r.met.FastDecisions.Inc()
		r.commit(inst, inst.seq, inst.deps)
		return
	}
	r.startAccept(inst)
}

// startAccept runs the slow-path Accept round with the union attributes.
func (r *Replica) startAccept(inst *instance) {
	ls := inst.lead
	ls.phase = leadAccept
	ls.slowPath = true
	ls.votes = quorum.NewTracker(r.cq)
	ls.votes.Add(int32(r.self))
	inst.seq = ls.seq
	inst.deps = depsSlice(ls.deps)
	inst.status = iaccepted
	r.register(inst)
	r.Broadcast(&Accept{Ballot: inst.ballot, ID: inst.id, Cmd: inst.cmd, Seq: inst.seq, Deps: inst.deps})
}

// onAccept is the acceptor side of the slow path.
func (r *Replica) onAccept(from timestamp.NodeID, m *Accept) {
	if from == r.self {
		return // our own broadcast loopback; state was set when sending
	}
	inst := r.getOrCreate(m.ID)
	if inst.ballot > m.Ballot || inst.status >= icommitted {
		if inst.status >= icommitted {
			r.Send(from, &Commit{ID: m.ID, Cmd: inst.cmd, Seq: inst.seq, Deps: inst.deps})
		}
		return
	}
	inst.cmd = m.Cmd
	inst.seq = m.Seq
	inst.deps = append(inst.deps[:0], m.Deps...)
	inst.status = iaccepted
	inst.ballot = m.Ballot
	r.register(inst)
	r.Send(from, &AcceptReply{Ballot: m.Ballot, ID: m.ID})
}

// onAcceptReply completes the slow path once a majority accepted.
func (r *Replica) onAcceptReply(from timestamp.NodeID, m *AcceptReply) {
	inst := r.instances[m.ID]
	if inst == nil || inst.lead == nil || inst.lead.phase != leadAccept || inst.ballot != m.Ballot {
		return
	}
	if !inst.lead.votes.Add(int32(from)) {
		return
	}
	if inst.lead.votes.Reached() {
		r.met.SlowDecisions.Inc()
		r.commit(inst, inst.seq, inst.deps)
	}
}

// commit finalises the instance locally and broadcasts the decision.
func (r *Replica) commit(inst *instance, seq uint64, deps []InstanceID) {
	inst.seq = seq
	inst.deps = deps
	inst.status = icommitted
	inst.lead = nil
	r.register(inst)
	r.met.Decided.Inc()
	r.Broadcast(&Commit{ID: inst.id, Cmd: inst.cmd, Seq: seq, Deps: deps})
	r.tryExecute(inst)
	r.wakeBlocked(inst.id)
}

// onCommit records a remote decision.
func (r *Replica) onCommit(m *Commit) {
	inst := r.getOrCreate(m.ID)
	if inst.status >= icommitted {
		return
	}
	inst.cmd = m.Cmd
	inst.seq = m.Seq
	inst.deps = append(inst.deps[:0], m.Deps...)
	inst.status = icommitted
	inst.lead = nil
	r.register(inst)
	r.met.Decided.Inc()
	r.tryExecute(inst)
	r.wakeBlocked(inst.id)
}

// onTick drives heartbeats, failure detection and recovery deadlines.
func (r *Replica) onTick(now time.Time) {
	if r.fd == nil {
		return
	}
	if now.Sub(r.lastHB) >= r.cfg.HeartbeatInterval {
		r.lastHB = now
		r.Broadcast(&Heartbeat{})
	}
	for _, suspect := range r.fd.Tick(now) {
		r.onSuspect(suspect, now)
	}
	r.checkRecoveryDeadlines(now)
}

// depsSlice converts a dep set into a sorted slice (deterministic wire
// format and comparable fast-path attributes).
func depsSlice(deps map[InstanceID]struct{}) []InstanceID {
	out := make([]InstanceID, 0, len(deps))
	for d := range deps {
		out = append(out, d)
	}
	sortDeps(out)
	return out
}

func sortDeps(deps []InstanceID) {
	for i := 1; i < len(deps); i++ {
		for j := i; j > 0 && depLess(deps[j], deps[j-1]); j-- {
			deps[j], deps[j-1] = deps[j-1], deps[j]
		}
	}
}

func depLess(a, b InstanceID) bool {
	if a.Replica != b.Replica {
		return a.Replica < b.Replica
	}
	return a.Slot < b.Slot
}
