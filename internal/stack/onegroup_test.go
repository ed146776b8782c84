package stack_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/kvstore"
	"github.com/caesar-consensus/caesar/internal/memnet"
	"github.com/caesar-consensus/caesar/internal/shard"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/wal"
)

// counterAt reads an OpAdd counter from a store (0 when absent).
func counterAt(s *kvstore.Store, key string) int64 {
	v, ok := s.Get(key)
	if !ok || len(v) != 8 {
		return 0
	}
	return int64(binary.BigEndian.Uint64(v))
}

// reopen opens a stopped node's data dir with the wal API alone and
// returns what it recovered, closing the log again.
func reopen(t *testing.T, dir string) (*wal.State, *kvstore.Store) {
	t.Helper()
	store := kvstore.New()
	l, st, err := wal.OpenInto(dir, store, wal.Options{})
	if err != nil {
		t.Fatalf("OpenInto(%s): %v", dir, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return st, store
}

// TestDirWithoutEpochRecordRestartsAsOneGroup: a data dir holding group
// 0's commands and no epoch record — what a one-group durable node wrote
// before every node logged its epoch 0 — restarts as a one-group node. It
// replays every command exactly once, logs epoch 0 exactly once (a second
// restart adds none), attaches group 0 at generation 0, and serves with
// its peers.
func TestDirWithoutEpochRecordRestartsAsOneGroup(t *testing.T) {
	const nodes, logged = 3, 25
	dir := t.TempDir()
	dirs := func(i int) string { return fmt.Sprintf("%s/n%d", dir, i) }
	for i := 0; i < nodes; i++ {
		l, st, err := wal.OpenInto(dirs(i), kvstore.New(), wal.Options{Self: timestamp.NodeID(i)})
		if err != nil {
			t.Fatal(err)
		}
		if !st.Empty {
			t.Fatalf("node %d: fresh dir recovered %+v", i, st)
		}
		if i == 0 {
			// Node 0 proposed the commands: it reserved their sequence
			// numbers before it proposed them.
			if err := l.ReserveSeq(0, logged); err != nil {
				t.Fatal(err)
			}
		}
		for seq := uint64(1); seq <= logged; seq++ {
			cmd := command.Add("counter", 1)
			cmd.ID = command.ID{Node: 0, Seq: seq}
			if _, err := l.LogCommand(0, cmd, timestamp.Timestamp{Seq: seq}, func() []byte { return nil }); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}

	restart := func(want int64) {
		t.Helper()
		net := memnet.New(memnet.Config{Nodes: nodes})
		defer net.Close()
		// The -shards flag is 4 on purpose: only a logged epoch beats it,
		// and a dir with commands but no epoch record came from one group.
		stacks := buildCluster(t, net, nodes, 4, dirs)
		for i, s := range stacks {
			if s.Recovered.Empty {
				t.Fatalf("node %d recovered nothing", i)
			}
			if s.Shards != 1 || s.Coordinator.Shards() != 1 {
				t.Fatalf("node %d came up with %d groups (coordinator %d), want 1", i, s.Shards, s.Coordinator.Shards())
			}
			if gens := s.Recovered.Generations(1); gens[0] != 0 {
				t.Fatalf("node %d attaches group 0 at generation %d", i, gens[0])
			}
			if got := counterAt(s.Store, "counter"); got != want {
				t.Fatalf("node %d replayed the counter to %d, want %d", i, got, want)
			}
		}
		submit(t, stacks[0], command.Add("counter", 1))
		for _, s := range stacks {
			waitUntil(t, 5*time.Second, func() bool { return counterAt(s.Store, "counter") == want+1 })
		}
		for i, s := range stacks {
			s.Stop()
			if st, store := reopen(t, dirs(i)); len(st.Epochs) != 1 || st.Epochs[0] != (wal.EpochChange{Epoch: 0, Shards: 1, PrevShards: 1}) {
				t.Fatalf("node %d logged epochs %+v, want epoch 0 of one group once", i, st.Epochs)
			} else if got := counterAt(store, "counter"); got != want+1 {
				t.Fatalf("node %d's dir replays the counter to %d, want %d", i, got, want+1)
			}
		}
	}
	restart(logged)
	restart(logged + 1)
}

// TestGroupZeroKeepsGenerationZero: a bare frame carries no generation,
// so group 0 must stay at generation 0 however the deployment is resized
// — here 4 → 1 → 3, after which groups 1 and 2 run at the second resize's
// epoch — and across a restart, which attaches the groups at the
// generations the log's epoch history gives (wal.State.Generations).
func TestGroupZeroKeepsGenerationZero(t *testing.T) {
	const nodes = 3
	net := memnet.New(memnet.Config{Nodes: nodes})
	defer net.Close()
	dir := t.TempDir()
	dirs := func(i int) string { return fmt.Sprintf("%s/n%d", dir, i) }
	stacks := buildCluster(t, net, nodes, 4, dirs)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, to := range []int{1, 3} {
		if err := stacks[0].Coordinator.Resize(ctx, to); err != nil {
			t.Fatalf("resize to %d: %v", to, err)
		}
		for i := 0; i < 2*to; i++ {
			submit(t, stacks[i%nodes], command.Put(testKey(i), []byte{byte(to)}))
		}
	}
	for _, s := range stacks {
		waitUntil(t, 10*time.Second, func() bool { return s.Coordinator.Epoch() == 2 && !s.Coordinator.Resizing() })
	}
	for i, s := range stacks {
		s.Stop()
		st, _ := reopen(t, dirs(i))
		if gens := st.Generations(3); gens[0] != 0 || gens[1] != 2 || gens[2] != 2 {
			t.Fatalf("node %d's generations after 4→1→3 = %v, want [0 2 2]", i, gens)
		}
	}

	// Restart every node: the groups attach at [0 2 2] and serve keys of
	// every group, group 0's over bare frames.
	net2 := memnet.New(memnet.Config{Nodes: nodes})
	defer net2.Close()
	restarted := buildCluster(t, net2, nodes, 4, dirs)
	defer func() {
		for _, s := range restarted {
			s.Stop()
		}
	}()
	router := shard.NewRouter(3)
	for g := 0; g < 3; g++ {
		k := ""
		for i := 0; k == ""; i++ {
			if c := fmt.Sprintf("after/%d", i); router.Shard(c) == g {
				k = c
			}
		}
		submit(t, restarted[g%nodes], command.Put(k, []byte("ok")))
	}
	for i, s := range restarted {
		if s.Shards != 3 || s.Coordinator.Epoch() != 2 {
			t.Fatalf("node %d restarted with %d groups at epoch %d, want 3 at epoch 2", i, s.Shards, s.Coordinator.Epoch())
		}
	}
}
