package rebalance

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/codec"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/kvstore"
	"github.com/caesar-consensus/caesar/internal/memnet"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/shard"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/transport"
	"github.com/caesar-consensus/caesar/internal/xshard"
)

func TestMarkerCodec(t *testing.T) {
	m := Marker{Epoch: 7, Shards: 4, PrevShards: 2}
	cmd, err := FenceCommand(m)
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Op != command.OpFence || len(cmd.Keys()) != 0 {
		t.Fatalf("fence command malformed: %v keys=%v", cmd.Op, cmd.Keys())
	}
	got, err := DecodeMarker(cmd.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("round-trip %+v, want %+v", got, m)
	}
}

// goldenMarker is the format: a fence's payload sits in WAL command
// records, so a change that breaks this test is a new segment generation
// (wal's segMagic), not a refactor. Epoch 300, 8 shards, 4 before.
const goldenMarker = "ac020804"

func TestMarkerFormatIsPinned(t *testing.T) {
	m := Marker{Epoch: 300, Shards: 8, PrevShards: 4}
	raw, err := EncodeMarker(m)
	if got := hex.EncodeToString(raw); err != nil || got != goldenMarker {
		t.Errorf("marker encodes to %s, %v; the format is %s", got, err, goldenMarker)
	}
	if got, err := DecodeMarker(raw); err != nil || got != m {
		t.Errorf("golden marker decodes to %+v, %v; want %+v", got, err, m)
	}
	// Every proper prefix and a trailing byte are refused, never misread.
	for cut := 0; cut < len(raw); cut++ {
		if _, err := DecodeMarker(raw[:cut:cut]); !errors.Is(err, codec.ErrMalformed) {
			t.Errorf("%d-byte prefix: %v, want ErrMalformed", cut, err)
		}
	}
	if _, err := DecodeMarker(append(raw, 0)); !errors.Is(err, codec.ErrMalformed) {
		t.Errorf("trailing byte: %v, want ErrMalformed", err)
	}
	// A group count no node can run is refused as well: installing it
	// would panic the mux of every replica that delivered the fence.
	for _, bad := range []Marker{
		{Epoch: 1, Shards: shard.MaxGroups + 1, PrevShards: 4},
		{Epoch: 1, Shards: 4, PrevShards: shard.MaxGroups + 1},
		{Epoch: 1, Shards: 0, PrevShards: 4},
		{Epoch: 1, Shards: 4, PrevShards: -1},
	} {
		raw, _ := EncodeMarker(bad)
		if _, err := DecodeMarker(raw); !errors.Is(err, codec.ErrMalformed) {
			t.Errorf("%v: %v, want ErrMalformed", bad, err)
		}
	}
	edge := Marker{Epoch: 1, Shards: shard.MaxGroups, PrevShards: 1}
	if raw, _ := EncodeMarker(edge); !markerRoundTrips(raw, edge) {
		t.Errorf("%v does not round-trip", edge)
	}
	if avg := testing.AllocsPerRun(100, func() { DecodeMarker(raw) }); avg != 0 {
		t.Errorf("DecodeMarker: %.1f allocs, want 0", avg)
	}
}

func TestMarkerRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 2000; i++ {
		m := Marker{Epoch: rng.Uint32() >> uint(rng.Intn(32)), Shards: int32(1 + rng.Intn(shard.MaxGroups)), PrevShards: int32(1 + rng.Intn(shard.MaxGroups))}
		raw, _ := EncodeMarker(m)
		if !markerRoundTrips(raw, m) {
			t.Fatalf("decode(encode(%+v)) differs", m)
		}
		// The same marker with one count pushed outside [1, MaxGroups].
		bad := m
		out := int32(rng.Uint32() >> uint(rng.Intn(32)))
		if shard.ValidGroups(int(out)) {
			out = -out
		}
		if rng.Intn(2) == 0 {
			bad.Shards = out
		} else {
			bad.PrevShards = out
		}
		raw, _ = EncodeMarker(bad)
		if _, err := DecodeMarker(raw); !errors.Is(err, codec.ErrMalformed) {
			t.Fatalf("decode(encode(%+v)): %v, want ErrMalformed", bad, err)
		}
	}
}

func markerRoundTrips(raw []byte, m Marker) bool {
	got, err := DecodeMarker(raw)
	return err == nil && got == m
}

// TestResizeRefusesUnrunnableGroupCount: a count outside
// [1, shard.MaxGroups] is refused before a fence is proposed. Above the
// bound, ordering the fence would panic every replica's mux at install.
func TestResizeRefusesUnrunnableGroupCount(t *testing.T) {
	co, _ := newTestCoordinator(2)
	for _, n := range []int{0, shard.MaxGroups + 1} {
		if err := co.Resize(context.Background(), n); err == nil {
			t.Errorf("Resize(%d) accepted", n)
		}
	}
	if co.Epoch() != 0 || co.Shards() != 2 || co.Resizing() {
		t.Fatalf("refused resizes moved the coordinator: epoch %d, %d shards, resizing %v", co.Epoch(), co.Shards(), co.Resizing())
	}
}

// keyHomedAt finds a key with the given homes under the two routers —
// the raw material of every gate scenario.
func keyHomedAt(t *testing.T, prev, next shard.Router, prevHome, nextHome int) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		k := fmt.Sprintf("probe-%d", i)
		if prev.Shard(k) == prevHome && next.Shard(k) == nextHome {
			return k
		}
	}
	t.Fatalf("no key with homes %d→%d", prevHome, nextHome)
	return ""
}

// recordingApplier is a fake inner chain logging applied commands.
type recordingApplier struct {
	mu   sync.Mutex
	keys []string
	cmds []command.Command
}

func (r *recordingApplier) ApplyAt(cmd command.Command, _ timestamp.Timestamp) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.keys = append(r.keys, cmd.Key)
	r.cmds = append(r.cmds, cmd)
	return []byte(cmd.Key)
}

func (r *recordingApplier) applied() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.keys...)
}

// newTestCoordinator builds an unbound coordinator suitable for driving
// the gate directly: no engines, a standalone commit table sharing the
// coordinator's epoch history, manual fences.
func newTestCoordinator(shards int) (*Coordinator, *recordingApplier) {
	history := shard.NewEpochs()
	history.Install(0, int32(shards))
	co := NewCoordinatorAt(Config{Self: 0, Now: time.Now}, history, 0)
	co.table = xshard.NewTable(xshard.TableConfig{Self: 0, Exec: kvstore.New()}, history)
	app := &recordingApplier{}
	return co, app
}

// applyThrough pushes one delivery through the gate and reports whether
// its completion fired synchronously.
func applyThrough(co *Coordinator, gate protocol.Applier, cmd command.Command) (fired bool, res protocol.Result) {
	ch := make(chan protocol.Result, 1)
	gate.ApplyDeferred(cmd, timestamp.Zero, protocol.DoneFunc(func(r protocol.Result) { ch <- r }))
	select {
	case r := <-ch:
		return true, r
	default:
		return false, protocol.Result{}
	}
}

// TestGateQueuesUntilHandoffCompletes drives a 2→4 growth by hand: a
// new-epoch command on a moved key parks until its source group fences,
// and drains, then applies in arrival order; same-epoch traffic on
// unmoved keys flows throughout.
func TestGateQueuesUntilHandoffCompletes(t *testing.T) {
	co, app := newTestCoordinator(2)
	prev, next := shard.NewRouterAt(0, 2), shard.NewRouterAt(1, 4)
	moved := keyHomedAt(t, prev, next, 0, 2)
	stayed := keyHomedAt(t, prev, next, 0, 0)

	gate2 := co.Applier(2, protocol.Sync(app))
	gate0 := co.Applier(0, protocol.Sync(app))

	// The new epoch reaches group 2 (its birth group) before group 0's
	// fence: the moved key's command must wait for group 0's handoff.
	co.onFence(2, Marker{Epoch: 1, Shards: 4, PrevShards: 2}, &fencePass{passed: true}) // install via first sighting
	cmd := command.Put(moved, nil)
	cmd.Epoch = 1
	cmd.ID = command.ID{Node: 1, Seq: 1}
	if fired, _ := applyThrough(co, gate2, cmd); fired {
		t.Fatal("moved-key command applied before its source group's handoff")
	}
	if co.QueuedCommands() != 1 {
		t.Fatalf("queued = %d, want 1", co.QueuedCommands())
	}

	// Unmoved traffic is unaffected, old-epoch traffic in group 0 too.
	ok := command.Put(stayed, nil)
	ok.Epoch = 1
	ok.ID = command.ID{Node: 1, Seq: 2}
	if fired, _ := applyThrough(co, gate0, ok); !fired {
		t.Fatal("unmoved-key command was gated")
	}
	old := command.Put(stayed, nil)
	old.ID = command.ID{Node: 1, Seq: 3}
	if fired, _ := applyThrough(co, gate0, old); !fired {
		t.Fatal("pre-fence old-epoch command was gated")
	}

	// Group 0's fence completes the handoff (no pending transactions, no
	// state hooks in this unit) and releases the queue.
	co.onFence(0, Marker{Epoch: 1, Shards: 4, PrevShards: 2}, &fencePass{passed: true})
	co.onFence(1, Marker{Epoch: 1, Shards: 4, PrevShards: 2}, &fencePass{passed: true})
	deadline := time.Now().Add(5 * time.Second)
	for co.QueuedCommands() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("queue never drained after handoff")
		}
		time.Sleep(time.Millisecond)
	}
	got := app.applied()
	if len(got) != 3 || got[len(got)-1] != moved {
		t.Fatalf("applied %v; want the released command last", got)
	}
	if co.Resizing() {
		t.Fatal("transition still pending after all fences and handoffs")
	}
	if co.Epoch() != 1 || co.Shards() != 4 {
		t.Fatalf("epoch/shards = %d/%d, want 1/4", co.Epoch(), co.Shards())
	}
}

// rerouteGroup is a group engine that hands every submission to a
// recorder and completes it with the value "rerouted".
type rerouteGroup func(command.Command)

func (r rerouteGroup) Submit(cmd command.Command, done protocol.DoneFunc) {
	r(cmd)
	if done != nil {
		done(protocol.Result{Value: []byte("rerouted")})
	}
}
func (rerouteGroup) Start() {}
func (rerouteGroup) Stop()  {}

// TestGateSkipsStaleAndReroutes checks the exactly-once path for a command
// routed under the old epoch but ordered after its group's fence: every
// replica skips it, handing the chain a noop under its ID in its place;
// only the submitting node re-routes it.
func TestGateSkipsStaleAndReroutes(t *testing.T) {
	co, app := newTestCoordinator(2)
	prev, next := shard.NewRouterAt(0, 2), shard.NewRouterAt(1, 4)
	moved := keyHomedAt(t, prev, next, 0, 2)

	var resubmitted []command.Command
	net := memnet.New(memnet.Config{Nodes: 1})
	defer net.Close()
	x := xshard.NewEngine(net.Endpoint(0), make([]int32, 2), co.table, func(int, transport.Endpoint) protocol.Engine {
		return rerouteGroup(func(cmd command.Command) { resubmitted = append(resubmitted, cmd) })
	})
	co.Bind(x, co.table)
	defer x.Stop()
	gate0 := co.Applier(0, protocol.Sync(app))
	for g := 0; g < 2; g++ {
		co.onFence(g, Marker{Epoch: 1, Shards: 4, PrevShards: 2}, &fencePass{passed: true})
	}

	// Someone else's stale command: skipped silently.
	theirs := command.Put(moved, nil)
	theirs.ID = command.ID{Node: 2, Seq: 9}
	fired, res := applyThrough(co, gate0, theirs)
	if !fired || res.Err != nil {
		t.Fatalf("stale skip must complete synchronously, got %v/%v", fired, res)
	}
	if len(resubmitted) != 0 {
		t.Fatal("a non-proposer re-routed someone else's command")
	}

	// Our own stale command: re-routed, result forwarded.
	ours := command.Put(moved, nil)
	ours.ID = command.ID{Node: 0, Seq: 1} // Self == 0
	fired, res = applyThrough(co, gate0, ours)
	if !fired || string(res.Value) != "rerouted" {
		t.Fatalf("stale reroute result = %v/%q", fired, res.Value)
	}
	if len(resubmitted) != 1 || resubmitted[0].Key != moved {
		t.Fatalf("resubmitted %v", resubmitted)
	}
	app.mu.Lock()
	defer app.mu.Unlock()
	if len(app.cmds) != 2 {
		t.Fatalf("the chain saw %v, want a noop for each stale command", app.cmds)
	}
	for i, id := range []command.ID{theirs.ID, ours.ID} {
		if c := app.cmds[i]; c.Op != command.OpNoop || c.ID != id {
			t.Fatalf("stale command %v reached the chain as %v, want a noop under its ID", id, c)
		}
	}
}

// TestGateKillsStaleTransactionPieces checks the epoch consistency of
// cross-shard transactions: a piece ordered after its group's fence under
// the old epoch kills the transaction (deterministically), reporting
// ErrEpochRetry to the coordinator's parked callback.
func TestGateKillsStaleTransactionPieces(t *testing.T) {
	co, app := newTestCoordinator(2)
	prev, next := shard.NewRouterAt(0, 2), shard.NewRouterAt(1, 4)
	moved := keyHomedAt(t, prev, next, 0, 2)
	other := keyHomedAt(t, prev, next, 1, 1)

	gate0 := co.Applier(0, protocol.Sync(app))
	xid := xshard.XID{Node: 0, Seq: 1}
	ops := []command.Command{command.Put(moved, nil), command.Put(other, nil)}
	var got protocol.Result
	fired := make(chan struct{})
	co.table.Expect(xid, []int32{0, 1}, ops, nil, 0, func(r protocol.Result) { got = r; close(fired) })

	piece, err := xshard.PieceCommand(xid, []int32{0, 1}, ops, ops[:1])
	if err != nil {
		t.Fatal(err)
	}
	piece.ID = command.ID{Node: 0, Seq: 5}
	for g := 0; g < 2; g++ {
		co.onFence(g, Marker{Epoch: 1, Shards: 4, PrevShards: 2}, &fencePass{passed: true})
	}
	if ok, _ := applyThrough(co, gate0, piece); !ok {
		t.Fatal("stale piece delivery did not complete")
	}
	<-fired
	if got.Err != xshard.ErrEpochRetry {
		t.Fatalf("transaction callback err = %v, want ErrEpochRetry", got.Err)
	}
}

// TestGateOrdersPiecesAroundTheFence pins the rules that let the commit
// table run an earlier epoch's transaction first: a newer epoch's piece is
// held until its group's fence and, on a moved key, until the key's source
// group has handed off; an older epoch's piece delivered after the fence
// kills its transaction even on a key that did not move.
func TestGateOrdersPiecesAroundTheFence(t *testing.T) {
	co, app := newTestCoordinator(2)
	prev, next := shard.NewRouterAt(0, 2), shard.NewRouterAt(1, 4)
	moved := keyHomedAt(t, prev, next, 1, 3)
	stayed0 := keyHomedAt(t, prev, next, 0, 0)
	stayed1 := keyHomedAt(t, prev, next, 1, 1)
	gate1, gate3 := co.Applier(1, protocol.Sync(app)), co.Applier(3, protocol.Sync(app))
	marker := Marker{Epoch: 1, Shards: 4, PrevShards: 2}
	piece := func(xid xshard.XID, groups []int32, ops []command.Command, epoch uint32, seq uint64) command.Command {
		t.Helper()
		cmd, err := xshard.PieceCommand(xid, groups, ops, ops[len(ops)-1:])
		if err != nil {
			t.Fatal(err)
		}
		cmd.Epoch, cmd.ID = epoch, command.ID{Node: 1, Seq: seq}
		return cmd
	}

	// Epoch 1 installs through group 0's fence; group 1 has not fenced.
	co.onFence(0, marker, &fencePass{passed: true})
	newer := []command.Command{command.Put(moved, nil), command.Put(stayed1, nil)}
	if fired, _ := applyThrough(co, gate1, piece(xshard.XID{Node: 1, Seq: 1}, []int32{1, 3}, newer[1:], 1, 1)); fired {
		t.Fatal("a newer epoch's piece passed its group before the group's fence")
	}
	if fired, _ := applyThrough(co, gate3, piece(xshard.XID{Node: 1, Seq: 1}, []int32{1, 3}, newer[:1], 1, 4)); fired {
		t.Fatal("a newer epoch's piece on a moved key passed before the key's source group handed off")
	}
	older := piece(xshard.XID{Node: 1, Seq: 2}, []int32{0, 1}, []command.Command{command.Put(stayed0, nil), command.Put(stayed1, nil)}, 0, 2)
	if fired, _ := applyThrough(co, gate1, older); !fired {
		t.Fatal("an older epoch's pre-fence piece was held")
	}
	co.onFence(1, marker, &fencePass{passed: true})
	deadline := time.Now().Add(5 * time.Second)
	for co.QueuedCommands() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("the held pieces were not released by group 1's fence")
		}
		time.Sleep(time.Millisecond)
	}

	// After the fence, an older epoch's piece is stale though no key of it
	// moved.
	xid := xshard.XID{Node: 0, Seq: 3}
	ops := []command.Command{command.Put(stayed0, nil), command.Put(stayed1, nil)}
	var got protocol.Result
	killed := make(chan struct{})
	co.table.Expect(xid, []int32{0, 1}, ops, nil, 0, func(r protocol.Result) { got = r; close(killed) })
	if fired, _ := applyThrough(co, gate1, piece(xid, []int32{0, 1}, ops, 0, 3)); !fired {
		t.Fatal("stale piece delivery did not complete")
	}
	select {
	case <-killed:
	case <-time.After(5 * time.Second):
		t.Fatal("a post-fence piece of an older epoch did not kill its transaction")
	}
	if got.Err != xshard.ErrEpochRetry {
		t.Fatalf("transaction callback err = %v, want ErrEpochRetry", got.Err)
	}
}

// TestResolveDoesNotTakeTheGateLock pins the declared lock order gate <
// table: the commit table's resolution sweep rebuilds a held transaction's
// routers from the history it shares with the coordinator, never through
// the coordinator, so a sweep under the table lock finishes while the gate
// lock is held.
func TestResolveDoesNotTakeTheGateLock(t *testing.T) {
	co, _ := newTestCoordinator(2)
	now := time.Unix(0, 0)
	table := xshard.NewTable(xshard.TableConfig{
		Self: 0, Exec: kvstore.New(), ResolveTimeout: time.Second,
		Now: func() time.Time { return now },
	}, co.history)
	co.table = table
	r := shard.NewRouterAt(0, 2)
	ops := []command.Command{command.Put(keyHomedAt(t, r, r, 0, 0), nil), command.Put(keyHomedAt(t, r, r, 1, 1), nil)}
	table.Expect(xshard.XID{Node: 0, Seq: 1}, []int32{0, 1}, ops, nil, 0, nil)
	now = now.Add(time.Hour) // past the entry's resolution deadline

	co.mu.Lock()
	done := make(chan struct{})
	go func() {
		table.Resolve()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Error("Resolve blocked while the gate lock was held")
	}
	co.mu.Unlock()
	<-done
}

// TestRouterAtRemembersEpochHistory checks survivors can rebuild old
// routers after several resizes: each fence records its epoch in the
// history the coordinator's verdicts rebuild routers from.
func TestRouterAtRemembersEpochHistory(t *testing.T) {
	co, _ := newTestCoordinator(2)
	co.onFence(0, Marker{Epoch: 1, Shards: 4, PrevShards: 2}, &fencePass{passed: true})
	co.onFence(1, Marker{Epoch: 1, Shards: 4, PrevShards: 2}, &fencePass{passed: true})
	co.mu.Lock()
	defer co.mu.Unlock()
	if r := co.routerForLocked(0); r.Shards() != 2 || r.Epoch() != 0 {
		t.Fatalf("router of epoch 0 = %d shards at epoch %d", r.Shards(), r.Epoch())
	}
	if r := co.routerForLocked(1); r.Shards() != 4 || r.Epoch() != 1 {
		t.Fatalf("router of epoch 1 = %d shards at epoch %d", r.Shards(), r.Epoch())
	}
	if r := co.routerForLocked(99); r.Shards() != 4 {
		t.Fatalf("unknown epoch fell back to %d shards, want current", r.Shards())
	}
}

// TestCompetingMarkersFirstWins: the second marker of one epoch (a
// concurrent resize that lost group 0's total order) must be ignored.
func TestCompetingMarkersFirstWins(t *testing.T) {
	co, _ := newTestCoordinator(2)
	co.onFence(0, Marker{Epoch: 1, Shards: 4, PrevShards: 2}, &fencePass{passed: true})
	co.onFence(0, Marker{Epoch: 1, Shards: 8, PrevShards: 2}, &fencePass{passed: true}) // the loser
	if co.Shards() != 4 {
		t.Fatalf("loser marker took effect: %d shards", co.Shards())
	}
	co.onFence(1, Marker{Epoch: 1, Shards: 4, PrevShards: 2}, &fencePass{passed: true})
	if co.Resizing() {
		t.Fatal("transition wedged by the losing marker")
	}
}

// TestStaleVerdictUsesGroupFencePrefix pins the determinism fix for
// back-to-back resizes: the apply-vs-skip verdict for an old-epoch
// command must be computed against the delivering group's own fence
// prefix (identical on every replica at that delivery position), never
// this node's global epoch, which other groups' fences advance at
// replica-dependent times.
func TestStaleVerdictUsesGroupFencePrefix(t *testing.T) {
	co, app := newTestCoordinator(2)
	gate0 := co.Applier(0, protocol.Sync(app))

	// Epoch 1 (2→4) completes everywhere.
	for g := 0; g < 2; g++ {
		co.onFence(g, Marker{Epoch: 1, Shards: 4, PrevShards: 2}, &fencePass{passed: true})
	}
	// Epoch 2 (4→8) installs via group 1's fence; group 0 has NOT fenced
	// epoch 2 yet, so its prefix is still epoch 1.
	co.onFence(1, Marker{Epoch: 2, Shards: 8, PrevShards: 4}, &fencePass{passed: true})
	if co.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", co.Epoch())
	}

	// A key that lives in group 0 under epochs 0 and 1 but moves away
	// under epoch 2's routing.
	r0, r1, r2 := shard.NewRouterAt(0, 2), shard.NewRouterAt(1, 4), shard.NewRouterAt(2, 8)
	var key string
	for i := 0; key == "" && i < 200000; i++ {
		k := fmt.Sprintf("gp-%d", i)
		if r0.Shard(k) == 0 && r1.Shard(k) == 0 && r2.Shard(k) != 0 {
			key = k
		}
	}
	if key == "" {
		t.Fatal("no probe key found")
	}

	// Old-epoch command delivered in group 0 after its epoch-1 fence: at
	// this delivery position every replica sees prefix epoch 1, under
	// which the key has not moved — it must apply, even on a replica
	// whose global epoch already reached 2.
	cmd := command.Put(key, nil)
	cmd.ID = command.ID{Node: 2, Seq: 1}
	fired, res := applyThrough(co, gate0, cmd)
	if !fired || res.Err != nil {
		t.Fatalf("delivery did not complete: %v/%v", fired, res)
	}
	if got := app.applied(); len(got) != 1 || got[0] != key {
		t.Fatalf("command was skipped as stale under the node-global epoch: applied=%v", got)
	}
}

// TestReleasedVerdictUsesDeliveryPosition pins the companion fix: a
// queued command is re-judged at release against the fence prefix
// recorded at its delivery position, not the prefix at the
// (replica-dependent) release moment.
func TestReleasedVerdictUsesDeliveryPosition(t *testing.T) {
	co, _ := newTestCoordinator(2)
	r1, r2 := shard.NewRouterAt(1, 4), shard.NewRouterAt(2, 8)
	var key string
	for i := 0; key == "" && i < 200000; i++ {
		k := fmt.Sprintf("rp-%d", i)
		if r1.Shard(k) == 2 && r2.Shard(k) != 2 {
			key = k
		}
	}
	if key == "" {
		t.Fatal("no probe key found")
	}
	co.history.Install(1, 4)
	co.history.Install(2, 8)
	co.mu.Lock()
	cmd := command.Put(key, nil)
	cmd.Epoch = 1
	// Delivered in group 2 while its prefix was epoch 1 (not stale);
	// by release time the group has fenced epoch 2 and the key moved.
	co.groupEpoch[2] = 2
	q := &queuedCmd{group: 2, groupEpoch: 1, cmd: cmd}
	if v := co.classifyReleasedLocked(q); v != gatePass {
		co.mu.Unlock()
		t.Fatalf("release verdict = %v, want pass (judged by delivery position)", v)
	}
	// The same command delivered AFTER the epoch-2 fence is stale.
	q2 := &queuedCmd{group: 2, groupEpoch: 2, cmd: cmd}
	if v := co.classifyReleasedLocked(q2); v != gateStale {
		co.mu.Unlock()
		t.Fatalf("post-fence release verdict = %v, want stale", v)
	}
	co.mu.Unlock()
}

// TestConcurrentFencesDuringScheduledRetirement races two groups' fence
// deliveries of one marker against a still-scheduled retirement from the
// previous shrink: whichever delivery performs the retirement, neither
// group's fence event may be dropped (a dropped fence shifts that group's
// epoch cut to a later re-proposed fence and diverges from peers).
func TestConcurrentFencesDuringScheduledRetirement(t *testing.T) {
	for i := 0; i < 50; i++ {
		co, _ := newTestCoordinator(4)
		// A completed 4→2 shrink with retirement still scheduled.
		for g := 0; g < 4; g++ {
			co.onFence(g, Marker{Epoch: 1, Shards: 2, PrevShards: 4}, &fencePass{passed: true})
		}
		if co.Resizing() {
			t.Fatal("shrink did not complete")
		}
		co.mu.Lock()
		if co.retireTo != 2 {
			co.mu.Unlock()
			t.Fatalf("retirement not scheduled: %d", co.retireTo)
		}
		co.mu.Unlock()

		m := Marker{Epoch: 2, Shards: 2, PrevShards: 2}
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				co.onFence(g, m, &fencePass{passed: true})
			}(g)
		}
		wg.Wait()
		if co.Resizing() {
			t.Fatal("a fence delivery was dropped during the retire window: transition never completed")
		}
		if co.Epoch() != 2 {
			t.Fatalf("epoch = %d, want 2", co.Epoch())
		}
	}
}

// heldChain is a chain that defers like the write-ahead log: it takes a
// delivery, returns, and completes it when the test says so.
type heldChain struct {
	recordingApplier
	mu   sync.Mutex
	held []func()
}

func (h *heldChain) ApplyDeferred(cmd command.Command, ts timestamp.Timestamp, done protocol.Completion) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.held = append(h.held, func() { done.Complete(protocol.Result{Value: h.ApplyAt(cmd, ts)}) })
}

// completeAll completes everything the chain holds, in the order taken.
func (h *heldChain) completeAll() {
	h.mu.Lock()
	held := h.held
	h.held = nil
	h.mu.Unlock()
	for _, fn := range held {
		fn()
	}
}

// TestHandoffWaitsForADeferringChain: above a chain that completes later a
// source group's handoff is done only when the chain has completed the
// group's pre-fence deliveries — the fence itself, which trails them, and
// any command of an earlier epoch the gate released to the chain — because
// until then a destination's command on a moved key could be applied first.
func TestHandoffWaitsForADeferringChain(t *testing.T) {
	co, _ := newTestCoordinator(2)
	r0, r1, r2 := shard.NewRouterAt(0, 2), shard.NewRouterAt(1, 4), shard.NewRouterAt(2, 8)
	var key string // homed 0, then 2, then 6
	for i := 0; key == ""; i++ {
		if k := fmt.Sprintf("probe-%d", i); r0.Shard(k) == 0 && r1.Shard(k) == 2 && r2.Shard(k) == 6 {
			key = k
		}
	}
	chains := make(map[int]*heldChain)
	gates := make(map[int]protocol.Applier)
	for g := 0; g < 8; g++ {
		chains[g] = &heldChain{}
		gates[g] = co.Applier(g, chains[g])
	}
	put := func(g int, epoch uint32, seq uint64) *bool {
		cmd := command.Put(key, nil)
		cmd.Epoch = epoch
		cmd.ID = command.ID{Node: 1, Seq: seq}
		done := new(bool)
		gates[g].ApplyDeferred(cmd, timestamp.Zero, protocol.DoneFunc(func(protocol.Result) { *done = true }))
		return done
	}
	fence := func(g int, m Marker) {
		cmd, err := FenceCommand(m)
		if err != nil {
			t.Fatal(err)
		}
		gates[g].ApplyDeferred(cmd, timestamp.Zero, protocol.DoneFunc(func(protocol.Result) {}))
	}
	taken := func(g int) int {
		chains[g].mu.Lock()
		defer chains[g].mu.Unlock()
		return len(chains[g].held)
	}

	// Epoch 1: the key moves 0 -> 2. Its new-epoch command reaches group 2
	// and parks; both old groups fence, but group 0's chain still holds
	// its fence — and with it whatever the group delivered before.
	m1 := Marker{Epoch: 1, Shards: 4, PrevShards: 2}
	fence(1, m1)
	chains[1].completeAll()
	first := put(2, 1, 1)
	fence(0, m1)
	if co.QueuedCommands() != 1 || taken(2) != 0 {
		t.Fatalf("group 0's chain holds its fence, yet the moved key's command left the queue (queued %d, taken by group 2's chain %d)",
			co.QueuedCommands(), taken(2))
	}
	chains[0].completeAll()
	if co.QueuedCommands() != 0 || taken(2) != 1 {
		t.Fatalf("group 0's fence completed; queued %d, taken by group 2's chain %d, want 0 and 1", co.QueuedCommands(), taken(2))
	}
	if co.Resizing() {
		t.Fatal("epoch 1 still in transition")
	}

	// Epoch 2: the key moves 2 -> 6 while group 2's chain still holds the
	// released epoch-1 command. Every fence completes at once; the
	// epoch-2 command in group 6 must wait for that one command.
	m2 := Marker{Epoch: 2, Shards: 8, PrevShards: 4}
	held := chains[2].held
	chains[2].held = nil
	for g := 0; g < 4; g++ {
		fence(g, m2)
		chains[g].completeAll()
	}
	second := put(6, 2, 2)
	if taken(6) != 0 {
		t.Fatal("group 6 was handed the key's epoch-2 command while group 2's chain still held its epoch-1 command")
	}
	held[0]()
	if !*first {
		t.Fatal("the released command's completion did not reach its caller")
	}
	if taken(6) != 1 {
		t.Fatalf("group 2's chain completed the epoch-1 command; group 6's chain has taken %d, want 1", taken(6))
	}
	chains[6].completeAll()
	if !*second || co.Resizing() {
		t.Fatalf("epoch-2 command done %v, still resizing %v", *second, co.Resizing())
	}
}
