package epaxos

import (
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/quorum"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// Explicit-prepare recovery: when a command leader is suspected, another
// replica raises a per-instance ballot, collects a majority of instance
// views and finishes the instance the most constrained way the views
// allow — replay a commit, resume an Accept, re-run PreAccept, or commit a
// no-op when nobody saw the instance at all. This is the (simplified)
// recovery of the EPaxos paper, enough to reproduce the crash experiment
// of Fig 12.

// prepReply pairs a PrepareReply with its sender.
type prepReply struct {
	from timestamp.NodeID
	msg  *PrepareReply
}

// recoveryState is one in-flight explicit prepare.
type recoveryState struct {
	id       InstanceID
	ballot   uint32
	votes    quorum.Tracker
	replies  []prepReply
	deadline time.Time
}

// onSuspect schedules explicit prepares for the suspect's unfinished
// instances, staggered by this node's rank among the survivors.
func (r *Replica) onSuspect(q timestamp.NodeID, now time.Time) {
	if q == r.self {
		return
	}
	startAt := now.Add(time.Duration(r.fd.Rank()) * r.cfg.RecoveryBackoff)
	schedule := func(id InstanceID) {
		if _, active := r.recoveries[id]; active {
			return
		}
		if _, scheduled := r.scheduledRecovery[id]; scheduled {
			return
		}
		r.scheduledRecovery[id] = startAt
	}
	for id, inst := range r.instances {
		if id.Replica == q && inst.status < icommitted {
			schedule(id)
		}
	}
	for id := range r.blockedExec {
		if id.Replica == q {
			if inst := r.instances[id]; inst == nil || inst.status < icommitted {
				schedule(id)
			}
		}
	}
}

// checkRecoveryDeadlines fires due prepares and retries stalled ones.
func (r *Replica) checkRecoveryDeadlines(now time.Time) {
	for id, at := range r.scheduledRecovery {
		if now.Before(at) {
			continue
		}
		delete(r.scheduledRecovery, id)
		r.startRecovery(id)
	}
	for id, rc := range r.recoveries {
		if now.After(rc.deadline) {
			delete(r.recoveries, id)
			r.startRecovery(id)
		}
	}
}

// startRecovery raises a new ballot for the instance and asks everyone for
// their view.
func (r *Replica) startRecovery(id InstanceID) {
	inst := r.instances[id]
	if inst != nil && inst.status >= icommitted {
		return
	}
	var ballot uint32 = 1
	if inst != nil {
		ballot = inst.ballot + 1
	}
	rc := &recoveryState{
		id:       id,
		ballot:   ballot,
		votes:    quorum.NewTracker(r.cq),
		deadline: r.now.Add(4 * r.cfg.SuspectTimeout),
	}
	r.recoveries[id] = rc
	r.met.Recoveries.Inc()
	r.Broadcast(&Prepare{Ballot: ballot, ID: id})
}

// onPrepare answers with this replica's view of the instance.
func (r *Replica) onPrepare(from timestamp.NodeID, m *Prepare) {
	inst := r.getOrCreate(m.ID)
	if inst.status >= icommitted {
		r.Send(from, &Commit{ID: m.ID, Cmd: inst.cmd, Seq: inst.seq, Deps: inst.deps})
		return
	}
	if m.Ballot <= inst.ballot && inst.status != inone {
		return
	}
	prevBallot := inst.ballot
	inst.ballot = m.Ballot
	r.Send(from, &PrepareReply{
		Ballot:       m.Ballot,
		ID:           m.ID,
		Status:       inst.status,
		Cmd:          inst.cmd,
		Seq:          inst.seq,
		Deps:         inst.deps,
		TupleBallot:  prevBallot,
		KnowsCommand: inst.status > inone,
	})
}

// onPrepareReply collects views and finishes the instance.
func (r *Replica) onPrepareReply(from timestamp.NodeID, m *PrepareReply) {
	rc := r.recoveries[m.ID]
	if rc == nil || m.Ballot != rc.ballot {
		return
	}
	if !rc.votes.Add(int32(from)) {
		return
	}
	rc.replies = append(rc.replies, prepReply{from: from, msg: m})
	if !rc.votes.Reached() {
		return
	}
	delete(r.recoveries, m.ID)
	r.finishRecovery(rc)
}

func (r *Replica) finishRecovery(rc *recoveryState) {
	inst := r.getOrCreate(rc.id)
	if inst.status >= icommitted {
		return
	}
	inst.ballot = rc.ballot

	// 1) Someone already accepted at the highest tuple ballot: resume the
	//    Accept round with that value.
	var accepted *PrepareReply
	for _, pr := range rc.replies {
		if m := pr.msg; m.Status == iaccepted && (accepted == nil || m.TupleBallot > accepted.TupleBallot) {
			accepted = m
		}
	}
	if accepted != nil {
		r.resumeAccept(inst, accepted.Cmd, accepted.Seq, accepted.Deps)
		return
	}

	// 2) Enough identical pre-accepts from replicas other than the
	//    original leader: the fast path may have committed with these
	//    attributes; Accept them.
	pre := make([]*PrepareReply, 0, len(rc.replies))
	for _, pr := range rc.replies {
		if pr.msg.Status == ipreaccepted && pr.from != rc.id.Replica {
			pre = append(pre, pr.msg)
		}
	}
	if len(pre) > 0 {
		base := pre[0]
		identical := 0
		for _, m := range pre {
			if m.Seq == base.Seq && depsEqual(m.Deps, base.Deps) {
				identical++
			}
		}
		if identical >= r.n/2 {
			r.resumeAccept(inst, base.Cmd, base.Seq, base.Deps)
			return
		}
		// 3) The command is known but nothing is decided: re-run
		//    PreAccept at the recovery ballot (never fast-pathed).
		r.restartPreAccept(inst, base.Cmd)
		return
	}
	for _, pr := range rc.replies {
		if pr.msg.KnowsCommand {
			r.restartPreAccept(inst, pr.msg.Cmd)
			return
		}
	}

	// 4) Nobody saw the instance: finalise it as a no-op so dependency
	//    graphs referencing it can execute.
	r.resumeAccept(inst, command.Noop(), 0, nil)
}

// resumeAccept drives the slow path with a decided-enough value.
func (r *Replica) resumeAccept(inst *instance, cmd command.Command, seq uint64, deps []InstanceID) {
	inst.cmd = cmd
	inst.seq = seq
	inst.deps = append([]InstanceID(nil), deps...)
	inst.status = iaccepted
	ds := make(map[InstanceID]struct{}, len(deps))
	for _, d := range deps {
		ds[d] = struct{}{}
	}
	inst.lead = &leaderState{
		phase:    leadAccept,
		votes:    quorum.NewTracker(r.cq),
		seq:      seq,
		deps:     ds,
		slowPath: true,
	}
	inst.lead.votes.Add(int32(r.self))
	if cmd.Op != command.OpNoop {
		r.register(inst)
	}
	r.Broadcast(&Accept{Ballot: inst.ballot, ID: inst.id, Cmd: cmd, Seq: seq, Deps: inst.deps})
}

// restartPreAccept re-runs phase 1 at a recovery ballot (no fast path).
func (r *Replica) restartPreAccept(inst *instance, cmd command.Command) {
	seq, deps := r.attributes(cmd)
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
		slowPath: true,
	}
	inst.lead.votes.Add(int32(r.self))
	r.register(inst)
	r.Broadcast(&PreAccept{Ballot: inst.ballot, ID: inst.id, Cmd: cmd, Seq: seq, Deps: inst.deps})
}

// depsEqual compares two sorted dep slices.
func depsEqual(a, b []InstanceID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
