// Package m2paxos implements the M2Paxos baseline (Peluso, Turcu, Palmieri,
// Losa, Ravindran — DSN 2016) as evaluated in §VI of the CAESAR paper: a
// multi-leader protocol that partitions the command space by key ownership.
//
// A node that owns a key decides commands on it in two communication delays
// over a classic quorum, without exchanging dependencies; the first-touch
// ownership acquisition is embedded in that same round. Commands on keys
// owned elsewhere are forwarded to the owner — the extra geo-hop
// responsible for M2Paxos's degradation under conflicting workloads (§VI).
//
// Ownership is a per-key Paxos ballot ⟨round, node⟩: round-1 claims may
// skip the prepare phase (they are only granted on virgin keys, so at most
// one claimant per key can win), while any later round must run an
// explicit acquisition (prepare) phase that returns the accepted suffix of
// the key's instance log so the new owner adopts still-in-flight values —
// the "ownership acquisition phase to re-distribute ownership records" the
// paper describes as expensive. Because round-1 claims skip the prepare,
// an acquisition that finds two of them on one instance cannot rank them
// by ballot: it waits for every replica's promise and adopts the claim a
// majority accepted (adoptSuffix).
package m2paxos

import (
	"slices"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/idset"
	"github.com/caesar-consensus/caesar/internal/metrics"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/quorum"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/transport"
)

// Ballot is a per-key ownership ballot ⟨round, node⟩ packed into an
// integer; ballots from different nodes never compare equal.
type Ballot uint64

// makeBallot packs round and node.
func makeBallot(round uint32, node timestamp.NodeID) Ballot {
	return Ballot(uint64(round)<<16 | uint64(uint16(node)))
}

// round extracts the ballot's round.
func (b Ballot) round() uint32 { return uint32(b >> 16) }

// node extracts the ballot's proposer.
func (b Ballot) node() timestamp.NodeID { return timestamp.NodeID(uint16(b)) }

// Config tunes a Replica.
type Config struct {
	// Metrics receives measurements; nil allocates a private recorder.
	Metrics *metrics.Recorder
}

// tickInterval is the retry timer's granularity.
const tickInterval = 25 * time.Millisecond

// retryTimeout bounds how long an unacknowledged round waits before
// escalating to a prepare at a higher round.
const retryTimeout = 500 * time.Millisecond

func (c Config) withDefaults() Config {
	if c.Metrics == nil {
		c.Metrics = metrics.NewRecorder()
	}
	return c
}

// SuffixEntry is one instance of a key's log reported during acquisition.
type SuffixEntry struct {
	Inst      uint64
	Ballot    Ballot
	Cmd       command.Command
	Committed bool
}

// Wire messages.
type (
	// Accept proposes Cmd at (Key, Inst) under the sender's ownership
	// ballot; for round-1 ballots it doubles as the first-touch claim.
	Accept struct {
		Key    string
		Ballot Ballot
		Inst   uint64
		Cmd    command.Command
	}
	// AcceptOK grants; Prev* report a previously committed value at the
	// instance that the claimant must adopt.
	AcceptOK struct {
		Key       string
		Ballot    Ballot
		Inst      uint64
		PrevValid bool
		PrevCmd   command.Command
	}
	// AcceptNACK refuses: the key is promised at a higher ballot.
	AcceptNACK struct {
		Key      string
		Ballot   Ballot
		Inst     uint64
		Promised Ballot
	}
	// PrepareKey opens the acquisition phase for a key at Ballot.
	PrepareKey struct {
		Key    string
		Ballot Ballot
	}
	// PrepareKeyOK promises and reports the accepted suffix.
	PrepareKeyOK struct {
		Key      string
		Ballot   Ballot
		ExecNext uint64
		Suffix   []SuffixEntry
	}
	// PrepareKeyNACK refuses a stale prepare.
	PrepareKeyNACK struct {
		Key      string
		Ballot   Ballot
		Promised Ballot
	}
	// Commit finalises Cmd at (Key, Inst).
	Commit struct {
		Key    string
		Ballot Ballot
		Inst   uint64
		Cmd    command.Command
	}
	// Forward hands a command to the key's (believed) owner. Hops bounds
	// chains built from stale views.
	Forward struct {
		Cmd  command.Command
		Hops uint8
	}
)

// keyRole is this node's relationship to a key.
type keyRole uint8

const (
	roleNone keyRole = iota
	roleAcquiring
	rolePreparing
	roleOwned
	roleRemote
)

// keyState unifies acceptor and owner state for one key.
type keyState struct {
	// Acceptor side: the promise and the routing view derived from it.
	promised Ballot

	// Owner side.
	role     keyRole
	ballot   Ballot // our claim when acquiring/preparing/owned
	owner    timestamp.NodeID
	queue    []command.Command // submissions parked during acquisition
	nextInst uint64
	// prepare bookkeeping
	prepVotes quorum.Tracker
	suffixes  [][]SuffixEntry // what each promise reported
	floor     uint64
	deadline  time.Time
}

// acceptedVal is the per-instance Paxos state.
type acceptedVal struct {
	ballot    Ballot
	cmd       command.Command
	committed bool
}

type instKey struct {
	key  string
	inst uint64
}

// pending is the owner-side state of one in-flight instance.
type pending struct {
	cmd      command.Command
	ballot   Ballot
	votes    quorum.Tracker
	prev     command.Command
	prevSet  bool
	deadline time.Time
}

// Replica is one M2Paxos node. Start, Stop and Submit are the embedded
// runtime's: a submission is ordered locally when this node owns (or can
// claim) the key, forwarded to the owner otherwise.
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

	keys      map[string]*keyState
	accepted  map[instKey]acceptedVal
	committed map[instKey]command.Command
	execNext  map[string]uint64
	pend      map[instKey]*pending
	executed  *idset.Set
	pending   *protocol.Pending
}

var _ protocol.Engine = (*Replica)(nil)

// New builds a replica attached to the endpoint.
func New(ep transport.Endpoint, app protocol.TimestampedApplier, cfg Config) *Replica {
	cfg = cfg.withDefaults()
	r := &Replica{
		self:      ep.Self(),
		n:         len(ep.Peers()),
		cq:        quorum.ClassicSize(len(ep.Peers())),
		cfg:       cfg,
		app:       app,
		met:       cfg.Metrics,
		keys:      make(map[string]*keyState),
		accepted:  make(map[instKey]acceptedVal),
		committed: make(map[instKey]command.Command),
		execNext:  make(map[string]uint64),
		pend:      make(map[instKey]*pending),
		executed:  idset.New(),
		pending:   protocol.NewPending(ep.Self(), cfg.Metrics),
	}
	r.Runtime = protocol.NewRuntime(ep, nil, tickInterval, r.step, r.pending.FailAll)
	return r
}

// key returns the state for k, creating it when absent.
func (r *Replica) key(k string) *keyState {
	ks := r.keys[k]
	if ks == nil {
		ks = &keyState{}
		r.keys[k] = ks
	}
	return ks
}

// step handles one event at the instant now.
func (r *Replica) step(now time.Time, ev protocol.Event) {
	r.now = now
	switch m := ev.Payload.(type) {
	case protocol.Submission:
		r.route(r.pending.Register(now, m), 0)
	case protocol.Tick:
		r.onTick(now)
	case *Accept:
		r.onAccept(ev.From, m)
	case *AcceptOK:
		r.onAcceptOK(ev.From, m)
	case *AcceptNACK:
		r.onAcceptNACK(m)
	case *PrepareKey:
		r.onPrepareKey(ev.From, m)
	case *PrepareKeyOK:
		r.onPrepareKeyOK(ev.From, m)
	case *PrepareKeyNACK:
		r.onPrepareKeyNACK(m)
	case *Commit:
		r.onCommit(m)
	case *Forward:
		r.route(m.Cmd, m.Hops)
	}
}

// route drives a command toward decision according to this node's
// relationship with the key.
func (r *Replica) route(cmd command.Command, hops uint8) {
	const maxHops = 4
	ks := r.key(cmd.Key)
	switch ks.role {
	case roleOwned:
		r.order(ks, cmd)
	case roleAcquiring, rolePreparing:
		ks.queue = append(ks.queue, cmd)
	case roleRemote:
		if hops >= maxHops {
			// Stale views chased us in a circle: take the key.
			ks.queue = append(ks.queue, cmd)
			r.startPrepare(cmd.Key, ks)
			return
		}
		r.Send(ks.owner, &Forward{Cmd: cmd, Hops: hops + 1})
	default: // roleNone: first touch
		if ks.promised != 0 && ks.promised.node() != r.self {
			ks.role = roleRemote
			ks.owner = ks.promised.node()
			r.route(cmd, hops)
			return
		}
		ks.role = roleAcquiring
		ks.ballot = makeBallot(1, r.self)
		ks.deadline = r.now.Add(retryTimeout)
		r.order(ks, cmd)
	}
}

// order runs the accept round for one command on a key this node claims.
func (r *Replica) order(ks *keyState, cmd command.Command) {
	key := cmd.Key
	inst := ks.nextInst
	if e := r.execNext[key]; e > inst {
		inst = e
	}
	ks.nextInst = inst + 1
	r.orderAt(ks, key, inst, cmd)
}

// orderAt broadcasts an Accept for a fixed instance.
func (r *Replica) orderAt(ks *keyState, key string, inst uint64, cmd command.Command) {
	r.pend[instKey{key, inst}] = &pending{
		cmd:      cmd,
		ballot:   ks.ballot,
		votes:    quorum.NewTracker(r.cq),
		deadline: r.now.Add(retryTimeout),
	}
	r.Broadcast(&Accept{Key: key, Ballot: ks.ballot, Inst: inst, Cmd: cmd})
}

// onAccept is the acceptor side of the (possibly claiming) accept round.
// Round-1 ballots are only granted on keys never promised to anyone else;
// higher rounds follow classic Paxos: grant when the ballot is at least the
// promise.
func (r *Replica) onAccept(from timestamp.NodeID, m *Accept) {
	ks := r.key(m.Key)
	var grant bool
	if m.Ballot.round() == 1 {
		grant = ks.promised == 0 || ks.promised == m.Ballot
	} else {
		grant = m.Ballot >= ks.promised
	}
	if !grant {
		r.Send(from, &AcceptNACK{Key: m.Key, Ballot: m.Ballot, Inst: m.Inst, Promised: ks.promised})
		return
	}
	if m.Ballot > ks.promised {
		ks.promised = m.Ballot
	}
	ik := instKey{m.Key, m.Inst}
	reply := &AcceptOK{Key: m.Key, Ballot: m.Ballot, Inst: m.Inst}
	if prev, ok := r.accepted[ik]; ok && prev.committed && prev.cmd.ID != m.Cmd.ID {
		// The instance is already decided: the claimant must adopt.
		reply.PrevValid = true
		reply.PrevCmd = prev.cmd
	} else {
		r.accepted[ik] = acceptedVal{ballot: m.Ballot, cmd: m.Cmd}
	}
	r.Send(from, reply)
}

func (r *Replica) onAcceptOK(from timestamp.NodeID, m *AcceptOK) {
	ik := instKey{m.Key, m.Inst}
	p := r.pend[ik]
	if p == nil || p.ballot != m.Ballot {
		return
	}
	if m.PrevValid {
		p.prevSet = true
		p.prev = m.PrevCmd
	}
	if !p.votes.Add(int32(from)) || !p.votes.Reached() {
		return
	}
	delete(r.pend, ik)
	ks := r.key(m.Key)
	if ks.ballot == m.Ballot && (ks.role == roleAcquiring || ks.role == rolePreparing) {
		r.becomeOwner(m.Key, ks)
	}
	if p.prevSet && p.prev.ID != p.cmd.ID {
		// Adopt the decided value and re-order ours at the next slot.
		r.Broadcast(&Commit{Key: m.Key, Ballot: m.Ballot, Inst: m.Inst, Cmd: p.prev})
		if ks.role == roleOwned {
			r.order(ks, p.cmd)
		} else {
			r.route(p.cmd, 0)
		}
		return
	}
	r.Broadcast(&Commit{Key: m.Key, Ballot: m.Ballot, Inst: m.Inst, Cmd: p.cmd})
}

// onAcceptNACK abandons the round: forward to the winner, or escalate to a
// prepare when the promise does not identify a usable owner.
func (r *Replica) onAcceptNACK(m *AcceptNACK) {
	ik := instKey{m.Key, m.Inst}
	p := r.pend[ik]
	if p == nil || p.ballot != m.Ballot {
		return
	}
	delete(r.pend, ik)
	ks := r.key(m.Key)
	if m.Promised > ks.promised {
		ks.promised = m.Promised
	}
	owner := m.Promised.node()
	if owner != r.self && ks.ballot <= m.Promised {
		// Someone else owns (or is winning) the key: hand everything
		// over.
		ks.queue = append(ks.queue, p.cmd)
		r.becomeRemote(ks, owner)
		return
	}
	// Our own stale claim: escalate through a prepare.
	ks.queue = append(ks.queue, p.cmd)
	r.startPrepare(m.Key, ks)
}

// becomeRemote switches the key to remote routing and forwards every parked
// submission to the owner; a queue must never survive the transition or its
// commands would be stranded.
func (r *Replica) becomeRemote(ks *keyState, owner timestamp.NodeID) {
	ks.role = roleRemote
	ks.owner = owner
	queue := ks.queue
	ks.queue = nil
	for _, cmd := range queue {
		r.route(cmd, 1)
	}
}

// startPrepare opens the explicit acquisition phase at a round above every
// ballot seen for the key.
func (r *Replica) startPrepare(key string, ks *keyState) {
	if ks.role == rolePreparing {
		return
	}
	round := ks.promised.round() + 1
	if br := ks.ballot.round() + 1; br > round {
		round = br
	}
	ks.role = rolePreparing
	ks.ballot = makeBallot(round, r.self)
	ks.prepVotes = quorum.NewTracker(r.cq)
	ks.suffixes = nil
	ks.floor = r.execNext[key]
	ks.deadline = r.now.Add(retryTimeout)
	r.met.Retries.Inc()
	r.Broadcast(&PrepareKey{Key: key, Ballot: ks.ballot})
}

// onPrepareKey promises and reports the accepted suffix of the key's log.
func (r *Replica) onPrepareKey(from timestamp.NodeID, m *PrepareKey) {
	ks := r.key(m.Key)
	if m.Ballot <= ks.promised {
		r.Send(from, &PrepareKeyNACK{Key: m.Key, Ballot: m.Ballot, Promised: ks.promised})
		return
	}
	ks.promised = m.Ballot
	if m.Ballot.node() != r.self {
		// We lost any claim we had in flight: our outstanding accepts
		// will be NACKed back into routing, and anything parked in the
		// queue must follow the new owner right away.
		r.becomeRemote(ks, m.Ballot.node())
	}
	reply := &PrepareKeyOK{Key: m.Key, Ballot: m.Ballot, ExecNext: r.execNext[m.Key]}
	for ik, av := range r.accepted {
		if ik.key == m.Key && ik.inst >= r.execNext[m.Key] {
			reply.Suffix = append(reply.Suffix, SuffixEntry{
				Inst:      ik.inst,
				Ballot:    av.ballot,
				Cmd:       av.cmd,
				Committed: av.committed,
			})
		}
	}
	r.Send(from, reply)
}

func (r *Replica) onPrepareKeyOK(from timestamp.NodeID, m *PrepareKeyOK) {
	ks := r.key(m.Key)
	if ks.role != rolePreparing || ks.ballot != m.Ballot {
		return
	}
	if !ks.prepVotes.Add(int32(from)) {
		return
	}
	ks.suffixes = append(ks.suffixes, m.Suffix)
	if m.ExecNext > ks.floor {
		ks.floor = m.ExecNext
	}
	if !ks.prepVotes.Reached() {
		return
	}
	// Every instance below floor was executed by a replier, so it is
	// decided and its Commit is on its way here: re-proposing it could
	// only contradict the decision.
	base := max(r.execNext[m.Key], ks.floor)
	adopt, ok := adoptSuffix(ks.suffixes, base, r.cq, ks.prepVotes.Count() == r.n)
	if !ok {
		return
	}
	// Acquisition complete: adopt the suffix, fill gaps with no-ops, and
	// resume the instance sequence after it. nextInst must move past the
	// suffix before the queue drains, or queued commands would collide
	// with the re-accepted instances.
	maxInst := base
	for inst := range adopt {
		if inst+1 > maxInst {
			maxInst = inst + 1
		}
	}
	ks.nextInst = maxInst
	for inst := base; inst < maxInst; inst++ {
		if cmd, ok := adopt[inst]; ok {
			r.orderAt(ks, m.Key, inst, cmd)
		} else {
			r.orderAt(ks, m.Key, inst, command.Noop())
		}
	}
	ks.suffixes = nil
	r.becomeOwner(m.Key, ks)
}

// adoptSuffix picks, for every instance from base on that a promise
// reported, the value a new owner must re-propose there: a committed one;
// else that of the highest ballot above round 1, whose proposer ran a
// prepare and so carries any earlier decision; else a round-1 value.
// Round-1 claims skip the prepare, so their ballots order nothing any
// claimant knew — and a claimant always grants its own claim first. When
// the promises report two round-1 values for one instance, the chosen
// one (a classic quorum accepted it; round-1 grants are exclusive per
// key, so at most one was) may be either, and only the promises of all n
// replicas (all) tell; until then ok is false.
func adoptSuffix(suffixes [][]SuffixEntry, base uint64, cq int, all bool) (adopt map[uint64]command.Command, ok bool) {
	best := make(map[uint64]SuffixEntry)
	claims := make(map[uint64][]claim) // each instance's round-1 values
	for _, suffix := range suffixes {
		for _, e := range suffix {
			if e.Inst < base {
				continue
			}
			if !e.Committed && e.Ballot.round() == 1 {
				cs := claims[e.Inst]
				i := slices.IndexFunc(cs, func(c claim) bool { return c.Ballot == e.Ballot })
				if i < 0 {
					i, cs = len(cs), append(cs, claim{SuffixEntry: e})
					claims[e.Inst] = cs
				}
				cs[i].reporters++
			}
			cur, seen := best[e.Inst]
			if !seen || e.Committed && !cur.Committed || (e.Committed == cur.Committed && e.Ballot > cur.Ballot) {
				best[e.Inst] = e
			}
		}
	}
	adopt = make(map[uint64]command.Command, len(best))
	for inst, e := range best {
		if cs := claims[inst]; !e.Committed && e.Ballot.round() == 1 && len(cs) > 1 {
			if !all {
				return nil, false
			}
			for _, c := range cs {
				if c.reporters >= cq {
					e = c.SuffixEntry
				}
			}
		}
		adopt[inst] = e.Cmd
	}
	return adopt, true
}

// claim is one round-1 value reported for an instance, and how many
// promises reported it.
type claim struct {
	SuffixEntry
	reporters int
}

func (r *Replica) onPrepareKeyNACK(m *PrepareKeyNACK) {
	ks := r.key(m.Key)
	if ks.role != rolePreparing || ks.ballot != m.Ballot {
		return
	}
	if m.Promised > ks.promised {
		ks.promised = m.Promised
	}
	if owner := m.Promised.node(); owner != r.self {
		r.becomeRemote(ks, owner)
	}
}

// becomeOwner transitions the key to owned and drains parked submissions.
func (r *Replica) becomeOwner(key string, ks *keyState) {
	if ks.role == roleOwned {
		return
	}
	ks.role = roleOwned
	ks.owner = r.self
	r.drainQueue(key, ks)
}

func (r *Replica) drainQueue(key string, ks *keyState) {
	queue := ks.queue
	ks.queue = nil
	for _, cmd := range queue {
		r.order(ks, cmd)
	}
}

func (r *Replica) onCommit(m *Commit) {
	ik := instKey{m.Key, m.Inst}
	r.accepted[ik] = acceptedVal{ballot: m.Ballot, cmd: m.Cmd, committed: true}
	r.committed[ik] = m.Cmd
	ks := r.key(m.Key)
	if m.Ballot >= ks.promised {
		ks.promised = m.Ballot
		if owner := m.Ballot.node(); owner != r.self && ks.role == roleNone {
			ks.role = roleRemote
			ks.owner = owner
		}
	}
	r.execute(m.Key)
}

// execute applies a key's committed instances in order.
func (r *Replica) execute(key string) {
	for {
		ik := instKey{key, r.execNext[key]}
		cmd, ok := r.committed[ik]
		if !ok {
			return
		}
		delete(r.committed, ik)
		r.execNext[key]++
		if cmd.Op == command.OpNoop || !r.executed.Add(cmd.ID) {
			continue // gap filler or duplicate via adoption
		}
		value := r.app.ApplyAt(cmd, timestamp.Zero)
		r.met.Executed.Inc()
		r.met.Decided.Inc()
		r.pending.Complete(r.now, cmd.ID, value)
	}
}

// onTick escalates rounds that could not assemble a quorum (split
// first-touch races and lost prepares).
func (r *Replica) onTick(now time.Time) {
	for ik, p := range r.pend {
		if now.Before(p.deadline) {
			continue
		}
		delete(r.pend, ik)
		ks := r.key(ik.key)
		switch ks.role {
		case roleOwned, roleAcquiring:
			// A quorum never formed (split first-touch race):
			// escalate through a prepare at a higher round.
			ks.queue = append(ks.queue, p.cmd)
			ks.role = roleNone
			r.startPrepare(ik.key, ks)
		default:
			// Ownership moved meanwhile; re-route the command.
			r.route(p.cmd, 0)
		}
	}
	for key, ks := range r.keys {
		if ks.role == rolePreparing && now.After(ks.deadline) {
			ks.role = roleNone
			r.startPrepare(key, ks)
		}
	}
}
