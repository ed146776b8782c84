package caesar

// Whitebox test of the loop clock: every replica timeout (failure
// detection, recovery stagger, the recovery prepare deadline and the
// fast-quorum timeout) must be computed from Config.Now and the ticks
// posted into the event loop — never from the wall clock — so that the
// whole timer chain fires deterministically under simulated time.

import (
	"sync"
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/memnet"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// fakeClock is a manually advanced time source.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(d)
	return f.now
}

// tick steps one timer event at the fake instant on the replica's loop,
// as the real ticker's would be.
func tick(rep *Replica, now time.Time) {
	rep.Inspect(func() { rep.Step(now, protocol.Event{Payload: protocol.Tick{}}) })
}

// inspect runs fn inside the replica's event loop and waits for it.
func inspect(t *testing.T, rep *Replica, fn func(*Replica)) {
	t.Helper()
	done := make(chan struct{})
	if !rep.Inspect(func() { fn(rep); close(done) }) {
		t.Fatal("replica loop stopped")
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("inspect timed out")
	}
}

func TestRecoveryDeadlinesDriveOnFakeClock(t *testing.T) {
	base := time.Unix(1_000_000, 0)
	fc := &fakeClock{now: base}
	cfg := Config{
		FastTimeout:       300 * time.Millisecond,
		HeartbeatInterval: 50 * time.Millisecond,
		SuspectTimeout:    200 * time.Millisecond,
		RecoveryBackoff:   100 * time.Millisecond,
		TickInterval:      time.Hour, // the real ticker stays silent; ticks are posted manually
		Now:               fc.Now,
	}
	c := newCluster(t, 3, memnet.Config{}, cfg)

	// Node 0 is the (crashed) leader of an in-flight command only node 1
	// knows about: a fast-pending record, as left behind by a FastPropose
	// whose leader died before stabilizing.
	orphan := command.Put("orphan-key", []byte("v"))
	orphan.ID = command.ID{Node: 0, Seq: 1}
	orphanTs := timestamp.Timestamp{Seq: 1, Node: 0}
	inspect(t, c.replicas[1], func(r *Replica) {
		rec := r.hist.ensure(orphan)
		rec.status = StatusFastPending
		r.hist.setTimestamp(rec, orphanTs)
	})
	c.net.Crash(0)
	c.replicas[0].Stop()
	// Isolate node 2 for now so node 1's recovery prepare cannot gather a
	// quorum — the in-flight prepare (and its deadline) stays observable.
	c.net.Partition(1, 2)

	// Drive simulated time in heartbeat-interval steps on the survivors;
	// node 0's silence crosses SuspectTimeout at base+250ms exactly.
	step := func() time.Time {
		now := fc.Advance(50 * time.Millisecond)
		tick(c.replicas[1], now)
		tick(c.replicas[2], now)
		time.Sleep(10 * time.Millisecond) // let in-flight messages drain
		return now
	}
	var suspectAt time.Time
	for i := 0; i < 5; i++ {
		suspectAt = step()
	}

	// Suspicion, the (rank-0, zero-delay) stagger and the recovery start
	// all fire on that same tick; the prepare deadline must be derived
	// from the fake instant, not the wall clock.
	var gotDeadline time.Time
	var active bool
	inspect(t, c.replicas[1], func(r *Replica) {
		if rc := r.hist.get(orphan.ID).recovery; rc != nil {
			active, gotDeadline = true, rc.deadline
		}
	})
	if !active {
		t.Fatalf("no recovery in flight for %v at fake time %v", orphan.ID, suspectAt)
	}
	if want := suspectAt.Add(cfg.RecoveryTimeout()); !gotDeadline.Equal(want) {
		t.Fatalf("recovery deadline = %v, want %v (suspect tick + 4×SuspectTimeout)", gotDeadline, want)
	}

	// Heal the partition and cross the prepare deadline in fake time: the
	// stalled prepare must be retried at a higher ballot, now reach node 2,
	// and re-propose the command.
	c.net.Heal(1, 2)
	waitFor := func(desc string, pred func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !pred() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", desc)
			}
			step()
		}
	}
	fc.Advance(cfg.RecoveryTimeout())
	waitFor("recovery proposal in flight", func() bool {
		var proposing bool
		inspect(t, c.replicas[1], func(r *Replica) {
			proposing = r.hist.get(orphan.ID).coord != nil
		})
		return proposing
	})

	// The re-proposal cannot gather the fast quorum (3 of 3) with node 0
	// down: it must sit until the fast-quorum timeout elapses in *fake*
	// time, then finish through the slow path.
	fc.Advance(cfg.FastTimeout) // cross the fast-quorum deadline in one jump
	waitFor("orphan delivered on both survivors", func() bool {
		return len(c.logs[1].Key(orphan.Key)) > 0 && len(c.logs[2].Key(orphan.Key)) > 0
	})
}
