package caesar

// Tests of the read-fence surface behind internal/reads: ReadStamp issues
// above everything applied, and ReadFence parks exactly until the known
// conflicting commands below the stamp have been applied locally.

import (
	"errors"
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/memnet"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// fence registers a read fence and returns its completion channel.
func fence(rep *Replica, keys []string, at timestamp.Timestamp) chan error {
	ch := make(chan error, 1)
	rep.ReadFence(keys, at, protocol.DoneFunc(func(res protocol.Result) { ch <- res.Err }))
	return ch
}

func TestReadFenceImmediateWhenFrontierClear(t *testing.T) {
	c := newCluster(t, 3, memnet.Config{}, Config{HeartbeatInterval: -1})
	rep := c.replicas[0]

	// Read-your-writes: after a write completes through this replica, the
	// stamp sits above its timestamp and the fence has nothing to wait on.
	if res := submitAndWait(t, rep, command.Put("k", []byte("v")), 5*time.Second); res.Err != nil {
		t.Fatal(res.Err)
	}
	select {
	case err := <-fence(rep, []string{"k"}, rep.ReadStamp()):
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fence over an applied frontier did not fire")
	}
}

func TestReadFenceWaitsForConflictBelowStamp(t *testing.T) {
	c := newCluster(t, 3, memnet.Config{}, Config{HeartbeatInterval: -1})
	rep := c.replicas[1]

	// An undelivered conflicting command below the read stamp, as left by
	// a FastPropose whose decision has not arrived yet.
	pending := put(0, 1, "k")
	pendingTs := ts(5, 0)
	inspect(t, rep, func(r *Replica) {
		rec := r.hist.ensure(pending)
		rec.status = StatusFastPending
		r.hist.setTimestamp(rec, pendingTs)
		r.clock.Observe(pendingTs)
	})

	ch := fence(rep, []string{"k"}, rep.ReadStamp())
	select {
	case <-ch:
		t.Fatal("fence fired with an unapplied conflict below the stamp")
	case <-time.After(100 * time.Millisecond):
	}

	// The decision arrives and applies: the fence must release.
	inspect(t, rep, func(r *Replica) {
		r.onStable(0, &Stable{Cmd: pending, Time: pendingTs})
	})
	select {
	case err := <-ch:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fence did not release after the conflict applied")
	}
}

func TestReadFenceIgnoresConflictsAboveStamp(t *testing.T) {
	c := newCluster(t, 3, memnet.Config{}, Config{HeartbeatInterval: -1})
	rep := c.replicas[1]

	at := rep.ReadStamp()
	inspect(t, rep, func(r *Replica) {
		// A pending conflict strictly above the read point can never
		// finalize below it (timestamps only move up): no wait.
		rec := r.hist.ensure(put(0, 1, "k"))
		rec.status = StatusFastPending
		r.hist.setTimestamp(rec, timestamp.Timestamp{Seq: at.Seq + 100, Node: 0})
	})
	select {
	case err := <-fence(rep, []string{"k"}, at):
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fence waited on a conflict above its stamp")
	}
}

func TestReadFenceIgnoresNonConflictingKeys(t *testing.T) {
	c := newCluster(t, 3, memnet.Config{}, Config{HeartbeatInterval: -1})
	rep := c.replicas[1]
	inspect(t, rep, func(r *Replica) {
		rec := r.hist.ensure(put(0, 1, "other"))
		rec.status = StatusFastPending
		r.hist.setTimestamp(rec, ts(1, 0))
		r.clock.Observe(ts(10, 0))
	})
	select {
	case err := <-fence(rep, []string{"k"}, rep.ReadStamp()):
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fence waited on a different key's command")
	}
}

func TestReadFenceFailsOnStop(t *testing.T) {
	c := newCluster(t, 3, memnet.Config{}, Config{HeartbeatInterval: -1})
	rep := c.replicas[2]
	inspect(t, rep, func(r *Replica) {
		rec := r.hist.ensure(put(0, 1, "k"))
		rec.status = StatusFastPending
		r.hist.setTimestamp(rec, ts(5, 0))
		r.clock.Observe(ts(5, 0))
	})
	ch := fence(rep, []string{"k"}, rep.ReadStamp())
	rep.Stop()
	select {
	case err := <-ch:
		if !errors.Is(err, protocol.ErrStopped) {
			t.Fatalf("err = %v, want ErrStopped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked fence not failed by Stop")
	}
}

func TestReadStampAboveAppliedWrites(t *testing.T) {
	c := newCluster(t, 3, memnet.Config{}, Config{HeartbeatInterval: -1})
	res := submitAndWait(t, c.replicas[0], command.Put("k", []byte("v")), 5*time.Second)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	var applied timestamp.Timestamp
	inspect(t, c.replicas[0], func(r *Replica) {
		for _, rec := range r.hist.recs {
			if rec.applied && applied.Less(rec.ts) {
				applied = rec.ts
			}
		}
	})
	if stamp := c.replicas[0].ReadStamp(); !applied.Less(stamp) {
		t.Fatalf("ReadStamp %v not above applied %v", stamp, applied)
	}
}
