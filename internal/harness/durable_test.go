package harness

import (
	"path/filepath"
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/kvstore"
	"github.com/caesar-consensus/caesar/internal/wal"
)

// TestDurableThroughputRatio is the durable scenario's acceptance
// measurement: with the write-ahead log and group-commit fsync enabled,
// throughput must stay at or above 60% of the identical in-memory run
// (the ISSUE's criterion), no client command may fail, and the log must
// actually have synced records.
func TestDurableThroughputRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second wall-clock experiment")
	}
	base := Options{
		Duration: 1200 * time.Millisecond,
		Warmup:   300 * time.Millisecond,
		Seed:     11,
	}
	// The ratio measures the log's design, but an individual sample also
	// measures whatever else is hammering the test machine's disk (the
	// suite runs packages in parallel; a neighbour's fsync storm can
	// multiply sync latency). Take the best of three attempts: a broken
	// log fails all three, transient contention does not.
	best := 0.0
	for attempt := 1; attempt <= 3; attempt++ {
		mem := Run(DurableOpts(base, "", false))
		durable := Run(DurableOpts(base, t.TempDir(), false))
		t.Logf("attempt %d: in-memory %.0f cmds/s, durable %.0f cmds/s, batch %.1f rec/sync, sync %v",
			attempt, mem.Throughput, durable.Throughput, durable.FsyncBatchMean, durable.FsyncLatencyMean)
		if mem.Failed > 0 || durable.Failed > 0 {
			t.Fatalf("client commands failed: in-memory %d, durable %d", mem.Failed, durable.Failed)
		}
		if mem.Throughput <= 0 || durable.Throughput <= 0 {
			t.Fatal("runs made no progress")
		}
		if durable.FsyncCount == 0 {
			t.Fatal("durable run recorded no fsync batches — the log was not in the path")
		}
		if ratio := durable.Throughput / mem.Throughput; ratio > best {
			best = ratio
		}
		if best >= 0.60 {
			return
		}
	}
	t.Fatalf("durable throughput ratio %.2f < 0.60 of in-memory on every attempt", best)
}

// TestDurableHarnessRunRecovers checks the harness data-dir plumbing end
// to end: a short durable run leaves logs a cold wal.OpenInto can replay.
func TestDurableHarnessRunRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock experiment")
	}
	dir := t.TempDir()
	res := Run(DurableOpts(Options{
		Duration: 500 * time.Millisecond,
		Warmup:   200 * time.Millisecond,
		Seed:     7,
	}, dir, false))
	if res.Throughput <= 0 {
		t.Fatal("durable run made no progress")
	}
	st, store := reopenNode0(t, dir)
	if st.Applied == 0 || store.Len() == 0 {
		t.Fatalf("nothing recovered: applied %d, %d keys", st.Applied, store.Len())
	}
	if len(st.Delivered) == 0 {
		t.Fatal("no delivered sets recovered")
	}
}

// reopenNode0 replays node 0's log from a finished durable run.
func reopenNode0(t *testing.T, dataDir string) (*wal.State, *kvstore.Store) {
	t.Helper()
	store := kvstore.New()
	log, st, err := wal.OpenInto(filepath.Join(dataDir, "node0"), store, wal.Options{})
	if err != nil {
		t.Fatalf("reopen node0 log: %v", err)
	}
	log.Close()
	return st, store
}
