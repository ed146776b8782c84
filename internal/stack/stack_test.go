package stack_test

import (
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/caesar"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/memnet"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/stack"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// buildCluster assembles n CAESAR nodes through the shared constructor.
func buildCluster(t *testing.T, net *memnet.Network, n, shards int, dirFor func(i int) string) []*stack.Stack {
	t.Helper()
	stacks := make([]*stack.Stack, n)
	for i := 0; i < n; i++ {
		dir := ""
		if dirFor != nil {
			dir = dirFor(i)
		}
		stk, err := stack.Build(net.Endpoint(timestamp.NodeID(i)), stack.Config{
			Shards:    shards,
			DataDir:   dir,
			Rebalance: true,
			Build: stack.CaesarEngine(caesar.Config{
				HeartbeatInterval: -1,
				GCInterval:        10 * time.Millisecond,
				RetransmitAfter:   100 * time.Millisecond,
			}),
		})
		if err != nil {
			t.Fatalf("Build node %d: %v", i, err)
		}
		stacks[i] = stk
	}
	for _, s := range stacks {
		s.Start()
	}
	return stacks
}

func submit(t *testing.T, s *stack.Stack, cmd command.Command) {
	t.Helper()
	done := make(chan protocol.Result, 1)
	s.Engine.Submit(cmd, func(res protocol.Result) { done <- res })
	select {
	case res := <-done:
		if res.Err != nil {
			t.Fatalf("submit %v: %v", cmd, res.Err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("submit %v timed out", cmd)
	}
}

// TestDurableShardedRestartRecoversState writes through a sharded durable
// cluster, tears one node down, rebuilds it from its data dir with a
// deliberately wrong -shards flag, and checks that the recovered epoch
// wins and the store comes back.
func TestDurableShardedRestartRecoversState(t *testing.T) {
	net := memnet.New(memnet.Config{Nodes: 3})
	defer net.Close()
	dir := t.TempDir()
	dirs := func(i int) string { return dir + "/n" + string(rune('0'+i)) }
	stacks := buildCluster(t, net, 3, 2, dirs)

	for i := 0; i < 20; i++ {
		submit(t, stacks[i%3], command.Put(testKey(i), []byte{byte(i)}))
	}
	// Give deliveries a moment to land everywhere, then stop node 2.
	waitUntil(t, 5*time.Second, func() bool { return stacks[2].Store.Applied() >= 20 })
	applied := stacks[2].Store.Applied()
	net.Crash(2)
	stacks[2].Stop()

	// Rebuild node 2 from disk with a wrong shard flag: the WAL's epoch
	// history must override it.
	net.Restore(2)
	rebuilt, err := stack.Build(net.Endpoint(2), stack.Config{
		Shards:    7, // wrong on purpose
		DataDir:   dirs(2),
		Rebalance: true,
		Build:     stack.CaesarEngine(caesar.Config{HeartbeatInterval: -1}),
	})
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	defer rebuilt.Stop()
	defer func() { stacks[0].Stop(); stacks[1].Stop() }()

	if rebuilt.Shards != 2 {
		t.Errorf("recovered Shards = %d, want 2 (durable epoch must beat the flag)", rebuilt.Shards)
	}
	if rebuilt.Store.Applied() != applied {
		t.Errorf("recovered Applied = %d, want %d", rebuilt.Store.Applied(), applied)
	}
	for i := 0; i < 20; i++ {
		v, ok := rebuilt.Store.Get(testKey(i))
		if !ok || len(v) != 1 || v[0] != byte(i) {
			t.Fatalf("key %d not recovered: %v %v", i, v, ok)
		}
	}
	if rebuilt.Recovered == nil || rebuilt.Recovered.Empty {
		t.Error("Recovered state missing")
	}
	rebuilt.Start()
	submit(t, rebuilt, command.Put("after-restart", []byte("ok")))
}

// TestUnshardedDurableNodeSnapshots drives a forced snapshot end to end
// on a single-group durable node.
func TestUnshardedDurableNodeSnapshots(t *testing.T) {
	net := memnet.New(memnet.Config{Nodes: 3})
	defer net.Close()
	dir := t.TempDir()
	dirs := func(i int) string { return dir + "/n" + string(rune('0'+i)) }
	stacks := buildCluster(t, net, 3, 1, dirs)
	defer func() {
		for _, s := range stacks {
			s.Stop()
		}
	}()
	for i := 0; i < 30; i++ {
		submit(t, stacks[0], command.Put(testKey(i), make([]byte, 128)))
	}
	if err := stacks[0].Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if got := stacks[0].Log.SizeSinceSnapshot(); got != 0 {
		t.Errorf("SizeSinceSnapshot after snapshot = %d", got)
	}
}

func testKey(i int) string { return "stack/key/" + string(rune('a'+i%26)) + string(rune('0'+i/26)) }

func waitUntil(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition never held")
}
