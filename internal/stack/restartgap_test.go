package stack_test

import (
	"sync"
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/caesar"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/kvstore"
	"github.com/caesar-consensus/caesar/internal/memnet"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/stack"
	"github.com/caesar-consensus/caesar/internal/wal"
)

// TestRestartGapCostsOneRun: a restarted proposer resumes above its
// predecessor's durable sequence reservation, leaving a gap in its command
// IDs. Every command it proposes afterwards must still cost the delivered
// sets nothing: on every replica the node's delivered IDs form at most two
// runs, and the group's delivered set in the next snapshot stays a few
// bytes however many commands followed the gap.
func TestRestartGapCostsOneRun(t *testing.T) {
	net := memnet.New(memnet.Config{Nodes: 3})
	defer net.Close()
	dir := t.TempDir()
	dirs := func(i int) string { return dir + "/n" + string(rune('0'+i)) }
	stacks := buildCluster(t, net, 3, 1, dirs)

	const before, after = 20, 5000
	for i := 0; i < before; i++ {
		submit(t, stacks[2], command.Put(testKey(i), []byte{byte(i)}))
	}
	// Every replica holds the pre-crash commands before node 2 goes down:
	// the crash drops its messages in flight, and with heartbeats off no
	// peer would ever recover a command whose Stable it lost — the
	// post-restart commands on that key would wait behind it forever.
	for _, s := range stacks {
		waitUntil(t, 5*time.Second, func() bool { return s.Store.Applied() >= before })
	}
	net.Crash(2)
	stacks[2].Stop()
	net.Restore(2)
	rebuilt, err := stack.Build(net.Endpoint(2), stack.Config{
		DataDir: dirs(2),
		Build:   stack.CaesarEngine(caesar.Config{HeartbeatInterval: -1, GCInterval: 10 * time.Millisecond}),
	})
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	stacks[2] = rebuilt
	rebuilt.Start()

	// A window of submissions in flight at a time, so the run finishes in
	// seconds; deliveries complete out of ID order within it.
	window := make(chan struct{}, 64)
	var wg sync.WaitGroup
	for i := 0; i < after; i++ {
		window <- struct{}{}
		wg.Add(1)
		rebuilt.Engine.Submit(command.Put(testKey(i%100), []byte{byte(i)}), func(res protocol.Result) {
			if res.Err != nil {
				t.Errorf("submit after the restart: %v", res.Err)
			}
			<-window
			wg.Done()
		})
	}
	wg.Wait()
	for _, s := range stacks {
		waitUntil(t, 10*time.Second, func() bool { return s.Store.Applied() >= before+after })
		if err := s.Snapshot(); err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
	}
	for _, s := range stacks {
		s.Stop()
	}

	for i := range stacks {
		l, st, err := wal.OpenInto(dirs(i), kvstore.New(), wal.Options{})
		if err != nil {
			t.Fatalf("reopen node %d: %v", i, err)
		}
		l.Close()
		set := st.Delivered[0]
		if n := set.Len(); n < before+after {
			t.Errorf("node %d: %d delivered commands, want %d", i, n, before+after)
		}
		if runs := set.Runs(2); runs > 2 {
			t.Errorf("node %d: the restarted proposer's IDs take %d runs", i, runs)
		}
		if b := len(set.AppendTo(nil)); b >= 64 {
			t.Errorf("node %d: the group's delivered set takes %d snapshot bytes", i, b)
		}
	}
}
