package caesar

// Whitebox reproduction of the rare post-restart liveness flake (ROADMAP):
// a leader that crashed and RESTARTED heartbeats again but has lost its
// in-flight commands, so the silence-based failure detector never fires
// and both survivors recover the stuck command through the stuck scan —
// dueling recoverers. Driven entirely on a fake clock, with tick steps
// chosen so both survivors' staggered schedules fire on the same instant
// (the maximal duel): their ballot-1 prepares race, can strand each other
// below a quorum, and the retry cadence must still converge instead of
// re-colliding forever.

import (
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/flight"
	"github.com/caesar-consensus/caesar/internal/memnet"
	"github.com/caesar-consensus/caesar/internal/quorum"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

func TestDuelingStuckRecoverersConverge(t *testing.T) {
	base := time.Unix(2_000_000, 0)
	fc := &fakeClock{now: base}
	rec := flight.New(0, 4096) // shared by the three replicas
	rec.SetNow(fc.Now)
	cfg := Config{
		FastTimeout:       200 * time.Millisecond,
		HeartbeatInterval: 50 * time.Millisecond,
		SuspectTimeout:    time.Second, // never trips: every node keeps heartbeating
		RecoveryBackoff:   50 * time.Millisecond,
		TickInterval:      time.Hour, // ticks are posted manually
		Now:               fc.Now,
		Flight:            rec,
	}
	c := newCluster(t, 3, memnet.Config{}, cfg)
	// The stuck scan marks the orphan on its first tick and recovers it a
	// stuck timeout — 3× SuspectTimeout — later, never sooner.
	stuckAfter := base.Add(3 * cfg.SuspectTimeout)

	// Node 0 is a restarted incarnation that lost an in-flight command:
	// it heartbeats (it gets ticks like everyone) but holds no record of
	// the orphan, while both survivors saw its FastPropose. The survivors'
	// stuck scan — not the failure detector — must recover it.
	orphan := command.Put("stuck-key", []byte("v"))
	orphan.ID = command.ID{Node: 0, Seq: 1}
	orphanTs := timestamp.Timestamp{Seq: 1, Node: 0}
	for _, i := range []int{1, 2} {
		inspect(t, c.replicas[i], func(r *Replica) {
			rec := r.hist.ensure(orphan)
			rec.status = StatusFastPending
			r.hist.setTimestamp(rec, orphanTs)
			r.clock.Observe(orphanTs)
		})
	}

	// Drive simulated time in 100ms steps: node 1's stagger (1×50ms) and
	// node 2's (2×50ms) both come due on the same tick, so their ballot-1
	// prepares always race.
	step := func() {
		now := fc.Advance(100 * time.Millisecond)
		for _, rep := range c.replicas {
			tick(rep, now)
		}
		time.Sleep(5 * time.Millisecond) // let in-flight messages drain
	}

	deadline := time.Now().Add(30 * time.Second)
	// The budget is generous in simulated time (40s ≈ 10 recovery-retry
	// rounds): a single lost duel round is fine, a livelock is not.
	for steps := 0; steps < 400; steps++ {
		if len(c.logs[1].Key(orphan.Key)) > 0 && len(c.logs[2].Key(orphan.Key)) > 0 {
			// Converged: the orphan delivered on both survivors. It must
			// also have delivered (or at least stabilized) identically.
			c.checkOrder(t, []string{orphan.Key}, nil)
			if !fc.Now().After(stuckAfter) {
				t.Fatalf("orphan recovered at %v, before the stuck timeout elapsed at %v", fc.Now().Sub(base), stuckAfter.Sub(base))
			}
			stuck := 0
			for _, e := range rec.Dump() {
				if e.Kind != flight.KindStuck {
					continue
				}
				stuck++
				if e.At.Before(stuckAfter) {
					t.Fatalf("stuck takeover scheduled at %v, before 3× SuspectTimeout (%v)", e.At.Sub(base), stuckAfter.Sub(base))
				}
			}
			if stuck == 0 {
				t.Fatal("orphan recovered without a stuck takeover in the flight journal")
			}
			return
		}
		if time.Now().After(deadline) {
			break
		}
		step()
	}
	var st1, st2 Status
	var b1, b2 uint32
	inspect(t, c.replicas[1], func(r *Replica) {
		if rec := r.hist.get(orphan.ID); rec != nil {
			st1, b1 = rec.status, rec.ballot
		}
	})
	inspect(t, c.replicas[2], func(r *Replica) {
		if rec := r.hist.get(orphan.ID); rec != nil {
			st2, b2 = rec.status, rec.ballot
		}
	})
	t.Fatalf("dueling stuck-recoverers stalled: orphan undelivered after 40s simulated (node1 %v b%d, node2 %v b%d)",
		st1, b1, st2, b2)
}

// TestStrandedDuelRetriesConverge corners the duel's worst round
// deterministically instead of hoping the message race produces it: both
// survivors hold an in-flight ballot-1 recovery for the orphan and every
// replica has already promised ballot 1 — the mutual-preemption state a
// lost duel round leaves behind, where each prepare is ignored everywhere
// and neither recoverer can ever gather a quorum. Only the retry path can
// save the command, and the retries must not re-collide into the same
// state forever (the suspected mechanism of the rare post-restart
// liveness flake): retry instants are rank-staggered, so the lower-ranked
// survivor's next ballot runs alone and wins.
func TestStrandedDuelRetriesConverge(t *testing.T) {
	base := time.Unix(3_000_000, 0)
	fc := &fakeClock{now: base}
	cfg := Config{
		FastTimeout:       200 * time.Millisecond,
		HeartbeatInterval: 50 * time.Millisecond,
		// The stranded state is installed directly, so the stuck scan
		// must stay out of it: its 3× SuspectTimeout (45s) exceeds the
		// 40s of simulated time the test runs after the recovery
		// deadlines.
		SuspectTimeout:  15 * time.Second,
		RecoveryBackoff: 50 * time.Millisecond,
		TickInterval:    time.Hour,
		Now:             fc.Now,
	}
	c := newCluster(t, 3, memnet.Config{}, cfg)

	orphan := command.Put("stranded-key", []byte("v"))
	orphan.ID = command.ID{Node: 0, Seq: 1}
	orphanTs := timestamp.Timestamp{Seq: 1, Node: 0}
	for _, i := range []int{0, 1, 2} {
		inspect(t, c.replicas[i], func(r *Replica) {
			if i != 0 {
				rec := r.hist.ensure(orphan)
				rec.status = StatusFastPending
				r.hist.setTimestamp(rec, orphanTs)
				r.clock.Observe(orphanTs)
			}
			// Everyone promised ballot 1 already; node 0 knows the orphan
			// by that promise alone.
			r.hist.ensure(command.Command{ID: orphan.ID}).promised = 1
		})
	}
	for _, i := range []int{1, 2} {
		inspect(t, c.replicas[i], func(r *Replica) {
			r.hist.get(orphan.ID).recovery = &recovery{
				ballot:   1,
				votes:    quorum.NewTracker(r.cq),
				replies:  make([]*RecoverReply, r.n),
				deadline: r.now.Add(r.cfg.RecoveryTimeout()),
			}
		})
	}

	step := func() {
		now := fc.Advance(100 * time.Millisecond)
		for _, rep := range c.replicas {
			tick(rep, now)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Cross the (identical) recovery deadlines, then give the retry
	// machinery a bounded number of rounds to converge.
	fc.Advance(cfg.RecoveryTimeout())
	deadline := time.Now().Add(30 * time.Second)
	for steps := 0; steps < 400; steps++ {
		if len(c.logs[1].Key(orphan.Key)) > 0 && len(c.logs[2].Key(orphan.Key)) > 0 {
			c.checkOrder(t, []string{orphan.Key}, nil)
			return
		}
		if time.Now().After(deadline) {
			break
		}
		step()
	}
	t.Fatal("stranded dueling recoveries never converged: the retry path re-collides")
}
