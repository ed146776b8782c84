package shard

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/memnet"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/transport"
)

// fakeGroup records what one shard's engine was asked to do.
type fakeGroup struct {
	mu        sync.Mutex
	submitted []command.Command
	started   int
	stopped   int
}

func (f *fakeGroup) Submit(cmd command.Command, done protocol.DoneFunc) {
	f.mu.Lock()
	f.submitted = append(f.submitted, cmd)
	f.mu.Unlock()
	if done != nil {
		done(protocol.Result{})
	}
}

func (f *fakeGroup) Start() { f.mu.Lock(); f.started++; f.mu.Unlock() }
func (f *fakeGroup) Stop()  { f.mu.Lock(); f.stopped++; f.mu.Unlock() }

func (f *fakeGroup) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.submitted)
}

// newFakes returns n fresh fake groups.
func newFakes(n int) []*fakeGroup {
	fakes := make([]*fakeGroup, n)
	for i := range fakes {
		fakes[i] = &fakeGroup{}
	}
	return fakes
}

// newEngine builds a sharded engine over a one-node network whose groups
// are the given engines, handed over through the build func.
func newEngine[G protocol.Engine](t *testing.T, groups []G) *Engine {
	t.Helper()
	net := memnet.New(memnet.Config{Nodes: 1})
	t.Cleanup(net.Close)
	return NewAt(net.Endpoint(0), make([]int32, len(groups)), func(s int, _ transport.Endpoint) protocol.Engine {
		return groups[s]
	})
}

func TestShardedEngineRoutesSubmissions(t *testing.T) {
	fakes := newFakes(4)
	eng := newEngine(t, fakes)
	eng.Start()
	defer eng.Stop()

	const n = 200
	want := make([]int, 4)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%d", i)
		want[eng.Router().Shard(key)]++
		eng.Submit(command.Put(key, nil), nil)
	}
	for s, f := range fakes {
		if f.count() != want[s] {
			t.Errorf("shard %d received %d submissions, want %d", s, f.count(), want[s])
		}
		if f.started != 1 {
			t.Errorf("shard %d started %d times", s, f.started)
		}
	}
}

func TestShardedEngineBroadcastsKeylessCommands(t *testing.T) {
	fakes := newFakes(4)
	eng := newEngine(t, fakes)
	eng.Start()
	defer eng.Stop()

	// A keyless command (noop/barrier) must reach every group, not only
	// shard 0 — otherwise a barrier never flushes shards 1..G-1.
	var fired int
	var res protocol.Result
	eng.Submit(command.Noop(), func(r protocol.Result) { fired++; res = r })
	for s, f := range fakes {
		if f.count() != 1 {
			t.Errorf("shard %d received %d copies of the barrier, want 1", s, f.count())
		}
	}
	if fired != 1 {
		t.Fatalf("done fired %d times, want exactly once", fired)
	}
	if res.Err != nil {
		t.Fatalf("barrier failed: %v", res.Err)
	}
}

func TestShardedEngineKeylessBroadcastReportsFirstError(t *testing.T) {
	boom := errors.New("boom")
	ok := &fakeGroup{}
	eng := newEngine(t, []protocol.Engine{ok, failingGroup{err: boom}})
	var res protocol.Result
	eng.Submit(command.Noop(), func(r protocol.Result) { res = r })
	if !errors.Is(res.Err, boom) {
		t.Fatalf("barrier error = %v, want %v", res.Err, boom)
	}
	if ok.count() != 1 {
		t.Fatalf("healthy group received %d submissions, want 1", ok.count())
	}
}

// failingGroup fails every submission.
type failingGroup struct{ err error }

func (f failingGroup) Submit(_ command.Command, done protocol.DoneFunc) {
	if done != nil {
		done(protocol.Result{Err: f.err})
	}
}
func (failingGroup) Start() {}
func (failingGroup) Stop()  {}

func TestShardedEngineRejectsCrossShard(t *testing.T) {
	eng := newEngine(t, newFakes(4))
	eng.Start()
	defer eng.Stop()

	r := eng.Router()
	a := "alpha"
	var b string
	for i := 0; b == ""; i++ {
		if k := fmt.Sprintf("k-%d", i); r.Shard(k) != r.Shard(a) {
			b = k
		}
	}
	cross := command.Command{Op: command.OpBatch, Key: a, ExtraKeys: []string{b}}
	var got error
	eng.Submit(cross, func(res protocol.Result) { got = res.Err })
	if !errors.Is(got, ErrCrossShard) {
		t.Fatalf("cross-shard submit returned %v, want ErrCrossShard", got)
	}
}

func TestShardedEngineStopFansOutAndReleasesEndpoint(t *testing.T) {
	fakes := newFakes(3)
	eng := newEngine(t, fakes)
	eng.Start()
	eng.Stop()
	eng.Stop() // idempotent, like every protocol.Engine
	for s, f := range fakes {
		if f.stopped != 2 {
			t.Errorf("shard %d saw %d stops, want 2 (fan-out is unconditional)", s, f.stopped)
		}
	}
}

func TestShardedEngineFromGroups(t *testing.T) {
	fakes := newFakes(2)
	eng := newEngine(t, fakes)
	if eng.Shards() != 2 {
		t.Fatalf("Shards() = %d, want 2", eng.Shards())
	}
	eng.Start()
	eng.Submit(command.Put("k", nil), nil)
	eng.Stop()
	total := fakes[0].count() + fakes[1].count()
	if total != 1 {
		t.Fatalf("groups received %d submissions, want 1", total)
	}
	if eng.Group(0) != fakes[0] {
		t.Fatal("Group(0) did not return the wired engine")
	}
}
