package shard_test

// The sharded engine over fake groups: xshard.Engine composes this
// package's Router and Mux into a node's submission engine, and these
// cases pin what it does with them — routing, epoch stamping, growth,
// retirement and revival — without running consensus.

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/kvstore"
	"github.com/caesar-consensus/caesar/internal/memnet"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/shard"
	"github.com/caesar-consensus/caesar/internal/transport"
	"github.com/caesar-consensus/caesar/internal/xshard"
)

// fakeGroup records what one group's engine was asked to do.
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

func (f *fakeGroup) last() command.Command {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.submitted[len(f.submitted)-1]
}

// newFakes returns n fresh fake groups.
func newFakes(n int) []*fakeGroup {
	fakes := make([]*fakeGroup, n)
	for i := range fakes {
		fakes[i] = &fakeGroup{}
	}
	return fakes
}

// newEngine builds a sharded engine over a one-node network with a fresh
// commit table; build makes each group, at construction and on growth.
func newEngine(t *testing.T, groups int, build xshard.BuildFunc) *xshard.Engine {
	t.Helper()
	net := memnet.New(memnet.Config{Nodes: 1})
	t.Cleanup(net.Close)
	history := shard.NewEpochs()
	history.Install(0, int32(groups))
	table := xshard.NewTable(xshard.TableConfig{Self: 0, Exec: kvstore.New()}, history)
	return xshard.NewEngine(net.Endpoint(0), make([]int32, groups), table, build)
}

// fakeEngine builds a sharded engine whose groups are the given fakes.
func fakeEngine(t *testing.T, fakes []*fakeGroup) *xshard.Engine {
	t.Helper()
	return newEngine(t, len(fakes), func(g int, _ transport.Endpoint) protocol.Engine { return fakes[g] })
}

// submitTo proposes a put on group g and returns the error its
// completion reported.
func submitTo(e *xshard.Engine, g int) error {
	var err error
	e.SubmitTo(g, command.Put("x", nil), func(res protocol.Result) { err = res.Err })
	return err
}

func TestShardedEngineRoutesSubmissions(t *testing.T) {
	fakes := newFakes(4)
	eng := fakeEngine(t, fakes)
	eng.Start()
	defer eng.Stop()

	const n = 200
	want := make([]int, 4)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%d", i)
		want[eng.Router().Shard(key)]++
		eng.Submit(command.Put(key, nil), nil)
	}
	// A keyless command goes to the one group the router names for it.
	home, err := eng.Router().Route(command.Noop())
	if err != nil {
		t.Fatal(err)
	}
	want[home]++
	eng.Submit(command.Noop(), nil)
	if fakes[home].last().Op != command.OpNoop {
		t.Fatalf("the keyless command missed group %d, the router's home for it", home)
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

// TestShardedEngineRejectsCrossShard: a transaction spanning groups is
// split into pieces, but a single member command whose own keys span
// groups has no piece to go in and is rejected.
func TestShardedEngineRejectsCrossShard(t *testing.T) {
	fakes := newFakes(4)
	eng := fakeEngine(t, fakes)
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
	cross := command.Command{Op: command.OpPut, Key: a, ExtraKeys: []string{b}}
	var got error
	eng.Submit(cross, func(res protocol.Result) { got = res.Err })
	if !errors.Is(got, shard.ErrCrossShard) {
		t.Fatalf("cross-shard submit returned %v, want ErrCrossShard", got)
	}
	for s, f := range fakes {
		if f.count() != 0 {
			t.Errorf("shard %d received %d submissions of a rejected command", s, f.count())
		}
	}
}

func TestShardedEngineStopFansOutAndReleasesEndpoint(t *testing.T) {
	fakes := newFakes(3)
	eng := fakeEngine(t, fakes)
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
	eng := fakeEngine(t, fakes)
	eng.Start()
	defer eng.Stop()
	eng.Submit(command.Put("k", nil), nil)
	if total := fakes[0].count() + fakes[1].count(); total != 1 {
		t.Fatalf("groups received %d submissions, want 1", total)
	}
	for g, f := range fakes {
		before := f.count()
		if err := submitTo(eng, g); err != nil {
			t.Fatalf("SubmitTo(%d): %v", g, err)
		}
		if f.count() != before+1 {
			t.Fatalf("SubmitTo(%d) did not reach the group built for slot %d", g, g)
		}
	}
	if err := submitTo(eng, 2); !errors.Is(err, xshard.ErrNoGroup) {
		t.Fatalf("SubmitTo past the built groups: %v, want ErrNoGroup", err)
	}
}

// epochRecorder records submitted commands per group.
type epochRecorder struct {
	group int
	got   chan command.Command
}

func (e *epochRecorder) Submit(cmd command.Command, done protocol.DoneFunc) {
	e.got <- cmd
	if done != nil {
		done(protocol.Result{})
	}
}
func (e *epochRecorder) Start() {}
func (e *epochRecorder) Stop()  {}

// TestEngineStampsRoutingEpoch checks that submissions carry the epoch of
// the router that placed them — the tag replicas use to spot commands
// routed under an outdated epoch after a resize.
func TestEngineStampsRoutingEpoch(t *testing.T) {
	got := make(chan command.Command, 8)
	e := newEngine(t, 2, func(g int, ep transport.Endpoint) protocol.Engine {
		return &epochRecorder{group: g, got: got}
	})
	e.Submit(command.Put("k", nil), nil)
	if cmd := <-got; cmd.Epoch != 0 {
		t.Fatalf("epoch-0 submission stamped %d", cmd.Epoch)
	}
	e.SetRouter(shard.NewRouterAt(3, 2))
	e.Submit(command.Put("k", nil), nil)
	if cmd := <-got; cmd.Epoch != 3 {
		t.Fatalf("epoch-3 submission stamped %d", cmd.Epoch)
	}
}

// TestEngineEnsureAndRetireGroups exercises the dynamic group set: growth
// builds and starts new groups, SubmitTo reaches them, RetireFrom stops
// them and reports ErrNoGroup, and a revival gets a fresh instance.
func TestEngineEnsureAndRetireGroups(t *testing.T) {
	got := make(chan command.Command, 8)
	var builds int
	e := newEngine(t, 2, func(g int, ep transport.Endpoint) protocol.Engine {
		builds++
		return &epochRecorder{group: g, got: got}
	})
	e.Start()
	defer e.Stop()
	// reaches submits to one group and reports whether it is live.
	reaches := func(g int) bool {
		err := submitTo(e, g)
		if err == nil {
			<-got
		} else if !errors.Is(err, xshard.ErrNoGroup) {
			t.Fatalf("SubmitTo(%d) err = %v, want nil or ErrNoGroup", g, err)
		}
		return err == nil
	}
	if builds != 2 || !reaches(1) || reaches(2) {
		t.Fatalf("construction built %d groups, want 2 live slots", builds)
	}
	if err := e.EnsureGroups(4, 1); err != nil {
		t.Fatalf("EnsureGroups: %v", err)
	}
	if builds != 4 || !reaches(3) {
		t.Fatalf("after growth: %d builds, want 4 and group 3 live", builds)
	}

	e.RetireFrom(2)
	if !reaches(1) || reaches(2) || reaches(3) {
		t.Fatal("after retire: want groups 0-1 live and 2-3 answering ErrNoGroup")
	}

	if err := e.EnsureGroups(4, 2); err != nil {
		t.Fatalf("revival: %v", err)
	}
	if builds != 6 || !reaches(2) || !reaches(3) {
		t.Fatalf("revival reused a dead instance: %d builds", builds)
	}
}
