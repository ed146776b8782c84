package caesar

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/memnet"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// orderLog records the per-key execution order at one replica so tests can
// check the Generalized Consensus contract: conflicting commands (same key)
// must execute in the same relative order everywhere.
type orderLog struct {
	mu     sync.Mutex
	perKey map[string][]command.ID
	data   map[string][]byte
	total  int
}

func newOrderLog() *orderLog {
	return &orderLog{
		perKey: make(map[string][]command.ID),
		data:   make(map[string][]byte),
	}
}

func (l *orderLog) ApplyAt(cmd command.Command, _ timestamp.Timestamp) []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	switch cmd.Op {
	case command.OpPut:
		l.perKey[cmd.Key] = append(l.perKey[cmd.Key], cmd.ID)
		l.data[cmd.Key] = cmd.Value
		return nil
	case command.OpGet:
		l.perKey[cmd.Key] = append(l.perKey[cmd.Key], cmd.ID)
		return l.data[cmd.Key]
	default:
		return nil
	}
}

func (l *orderLog) Total() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

func (l *orderLog) Key(k string) []command.ID {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]command.ID, len(l.perKey[k]))
	copy(out, l.perKey[k])
	return out
}

// cluster bundles N replicas on a memnet for tests.
type cluster struct {
	net      *memnet.Network
	replicas []*Replica
	logs     []*orderLog
}

func newCluster(t testing.TB, n int, netCfg memnet.Config, cfg Config) *cluster {
	t.Helper()
	netCfg.Nodes = n
	net := memnet.New(netCfg)
	c := &cluster{net: net}
	for i := 0; i < n; i++ {
		log := newOrderLog()
		rep := New(net.Endpoint(timestamp.NodeID(i)), protocol.Sync(log), cfg)
		c.logs = append(c.logs, log)
		c.replicas = append(c.replicas, rep)
	}
	for _, rep := range c.replicas {
		rep.Start()
	}
	t.Cleanup(func() {
		for _, rep := range c.replicas {
			rep.Stop()
		}
		net.Close()
	})
	return c
}

// waitTotals blocks until every live replica has executed want commands.
func (c *cluster) waitTotals(t testing.TB, want int, timeout time.Duration, skip map[int]bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		done := true
		for i, log := range c.logs {
			if skip[i] {
				continue
			}
			if log.Total() < want {
				done = false
				break
			}
		}
		if done {
			return
		}
		if time.Now().After(deadline) {
			for i, log := range c.logs {
				t.Logf("replica %d executed %d/%d", i, log.Total(), want)
			}
			t.Fatalf("timed out waiting for %d executions", want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// checkOrder asserts identical per-key execution order across replicas.
func (c *cluster) checkOrder(t testing.TB, keys []string, skip map[int]bool) {
	t.Helper()
	ref := -1
	for i := range c.logs {
		if !skip[i] {
			ref = i
			break
		}
	}
	for _, k := range keys {
		want := c.logs[ref].Key(k)
		for i, log := range c.logs {
			if skip[i] || i == ref {
				continue
			}
			got := log.Key(k)
			if len(got) != len(want) {
				t.Fatalf("key %q: replica %d executed %d commands, replica %d executed %d",
					k, i, len(got), ref, len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("key %q diverges at position %d: replica %d has %v, replica %d has %v",
						k, j, i, got[j], ref, want[j])
				}
			}
		}
	}
}

func submitAndWait(t testing.TB, rep *Replica, cmd command.Command, timeout time.Duration) protocol.Result {
	t.Helper()
	ch := make(chan protocol.Result, 1)
	rep.Submit(cmd, func(res protocol.Result) { ch <- res })
	select {
	case res := <-ch:
		return res
	case <-time.After(timeout):
		t.Fatalf("submit of %v timed out", cmd)
		return protocol.Result{}
	}
}

func TestSingleCommandFastDecision(t *testing.T) {
	c := newCluster(t, 5, memnet.Config{}, Config{HeartbeatInterval: -1})
	res := submitAndWait(t, c.replicas[0], command.Put("x", []byte("v1")), 2*time.Second)
	if res.Err != nil {
		t.Fatalf("unexpected error: %v", res.Err)
	}
	c.waitTotals(t, 1, 2*time.Second, nil)
	if got := c.replicas[0].Metrics().FastDecisions.Load(); got != 1 {
		t.Fatalf("want 1 fast decision, got %d", got)
	}
	if got := c.replicas[0].Metrics().SlowDecisions.Load(); got != 0 {
		t.Fatalf("want 0 slow decisions, got %d", got)
	}
}

func TestReadYourWrite(t *testing.T) {
	c := newCluster(t, 5, memnet.Config{}, Config{HeartbeatInterval: -1})
	if res := submitAndWait(t, c.replicas[1], command.Put("k", []byte("hello")), 2*time.Second); res.Err != nil {
		t.Fatalf("put failed: %v", res.Err)
	}
	res := submitAndWait(t, c.replicas[1], command.Get("k"), 2*time.Second)
	if string(res.Value) != "hello" {
		t.Fatalf("get returned %q, want %q", res.Value, "hello")
	}
}

func TestSequentialConflictingCommands(t *testing.T) {
	c := newCluster(t, 5, memnet.Config{}, Config{HeartbeatInterval: -1})
	const total = 40
	for i := 0; i < total; i++ {
		rep := c.replicas[i%5]
		if res := submitAndWait(t, rep, command.Put("hot", []byte{byte(i)}), 2*time.Second); res.Err != nil {
			t.Fatalf("put %d failed: %v", i, res.Err)
		}
	}
	c.waitTotals(t, total, 5*time.Second, nil)
	c.checkOrder(t, []string{"hot"}, nil)
}

func TestConcurrentConflictingCommands(t *testing.T) {
	for _, n := range []int{3, 5, 7} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			c := newCluster(t, n, memnet.Config{Jitter: 200 * time.Microsecond}, Config{HeartbeatInterval: -1})
			const perNode = 60
			keys := []string{"a", "b", "c"}
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(node int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(node)))
					for j := 0; j < perNode; j++ {
						key := keys[rng.Intn(len(keys))]
						submitAndWait(t, c.replicas[node], command.Put(key, []byte{byte(j)}), 10*time.Second)
					}
				}(i)
			}
			wg.Wait()
			c.waitTotals(t, n*perNode, 10*time.Second, nil)
			c.checkOrder(t, keys, nil)
		})
	}
}

func TestNonConflictingCommandsAllFast(t *testing.T) {
	c := newCluster(t, 5, memnet.Config{}, Config{HeartbeatInterval: -1})
	const perNode = 30
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			for j := 0; j < perNode; j++ {
				key := fmt.Sprintf("n%d-k%d", node, j)
				submitAndWait(t, c.replicas[node], command.Put(key, nil), 5*time.Second)
			}
		}(i)
	}
	wg.Wait()
	var fast, slow int64
	for _, rep := range c.replicas {
		fast += rep.Metrics().FastDecisions.Load()
		slow += rep.Metrics().SlowDecisions.Load()
	}
	if fast != 5*perNode || slow != 0 {
		t.Fatalf("want %d fast / 0 slow decisions, got %d fast / %d slow", 5*perNode, fast, slow)
	}
}

func TestGeoLatencyCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("geo latencies are slow")
	}
	// 2% of the paper's latencies: Virginia-quorum RTT ≈ 80ms → 1.6ms.
	c := newCluster(t, 5, memnet.Config{Delay: memnet.GeoDelay(0.02)}, Config{HeartbeatInterval: -1})
	start := time.Now()
	res := submitAndWait(t, c.replicas[0], command.Put("x", nil), 5*time.Second)
	if res.Err != nil {
		t.Fatalf("put failed: %v", res.Err)
	}
	// A fast decision from Virginia needs its 4th-closest peer
	// (Frankfurt, RTT 88ms → 1.76ms scaled); it cannot be faster.
	if d := time.Since(start); d < 1700*time.Microsecond {
		t.Fatalf("latency %v is below the fast-quorum RTT floor", d)
	}
}

func TestCrashedLeaderCommandRecovered(t *testing.T) {
	cfg := Config{
		HeartbeatInterval: 20 * time.Millisecond,
		SuspectTimeout:    120 * time.Millisecond,
		RecoveryBackoff:   30 * time.Millisecond,
		TickInterval:      10 * time.Millisecond,
	}
	c := newCluster(t, 5, memnet.Config{}, cfg)

	// Get one command through normally first so every node has state.
	submitAndWait(t, c.replicas[0], command.Put("x", []byte("pre")), 2*time.Second)

	// Partition node 4 from everyone except node 3, so that node 4's
	// proposal reaches only node 3 (a minority) and then node 4 crashes:
	// node 3 holds a fast-pending tuple that recovery must finish.
	for _, other := range []timestamp.NodeID{0, 1, 2} {
		c.net.Partition(4, other)
	}
	c.replicas[4].Submit(command.Put("x", []byte("orphan")), nil)
	time.Sleep(50 * time.Millisecond) // let the propose reach node 3
	c.net.Crash(4)
	c.replicas[4].Stop()

	// The survivors must detect the crash and finish the orphan.
	skip := map[int]bool{4: true}
	c.waitTotals(t, 2, 10*time.Second, skip)
	c.checkOrder(t, []string{"x"}, skip)
}

func TestClusterKeepsWorkingAfterCrash(t *testing.T) {
	cfg := Config{
		HeartbeatInterval: 20 * time.Millisecond,
		SuspectTimeout:    120 * time.Millisecond,
		RecoveryBackoff:   30 * time.Millisecond,
		TickInterval:      10 * time.Millisecond,
	}
	c := newCluster(t, 5, memnet.Config{}, cfg)
	submitAndWait(t, c.replicas[0], command.Put("k", []byte("a")), 2*time.Second)

	c.net.Crash(4)
	c.replicas[4].Stop()

	// The four survivors still form fast quorums (FQ=4) and must make
	// progress.
	for i := 0; i < 12; i++ {
		rep := c.replicas[i%4]
		if res := submitAndWait(t, rep, command.Put("k", []byte{byte(i)}), 10*time.Second); res.Err != nil {
			t.Fatalf("post-crash put %d failed: %v", i, res.Err)
		}
	}
	skip := map[int]bool{4: true}
	c.waitTotals(t, 13, 10*time.Second, skip)
	c.checkOrder(t, []string{"k"}, skip)
}

func TestStopFailsInflight(t *testing.T) {
	net := memnet.New(memnet.Config{Nodes: 5, Delay: memnet.UniformDelay(time.Hour)})
	defer net.Close()
	rep := New(net.Endpoint(0), protocol.Sync(newOrderLog()), Config{HeartbeatInterval: -1})
	rep.Start()
	ch := make(chan protocol.Result, 1)
	rep.Submit(command.Put("x", nil), func(res protocol.Result) { ch <- res })
	time.Sleep(20 * time.Millisecond)
	rep.Stop()
	select {
	case res := <-ch:
		if res.Err != protocol.ErrStopped {
			t.Fatalf("want ErrStopped, got %v", res.Err)
		}
	case <-time.After(time.Second):
		t.Fatal("done callback not fired on Stop")
	}
}
