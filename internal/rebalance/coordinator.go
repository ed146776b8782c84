package rebalance

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/flight"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/shard"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/trace"
	"github.com/caesar-consensus/caesar/internal/xshard"
)

// ErrResizeInProgress rejects a resize initiated while another transition
// is still completing on this node.
var ErrResizeInProgress = errors.New("rebalance: a resize is already in progress")

// ErrResizeConflict reports that a concurrently initiated resize won the
// epoch: the deployment was resized, but to the winner's shard count.
var ErrResizeConflict = errors.New("rebalance: a concurrent resize won the epoch")

// Config tunes one node's rebalance coordinator.
type Config struct {
	// Self is this node's ID; it staggers fence re-proposals and decides
	// which skipped commands this node re-routes (only its own).
	Self timestamp.NodeID
	// Now is the clock deadlines are computed from. Default time.Now.
	Now func() time.Time
	// Journal, when non-nil, durably records each epoch this node
	// installs (internal/wal): a restarted node rebuilds its routing
	// epoch history from these records. Called once per installed epoch,
	// synchronously (the install is not visible to deliveries until it
	// returns); it must not call back into the coordinator.
	Journal func(m Marker)
	// Trace, when non-nil, records each fence delivery this node applies,
	// tying resize progress into command histories.
	Trace *trace.Ring
	// Flight, when non-nil, journals resize initiations and epoch
	// installs into the node's flight recorder (internal/flight).
	Flight *flight.Recorder
}

func (c Config) withDefaults() Config {
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// handoff tracks one source group's handoff during a transition.
type handoff struct {
	// drained: every cross-shard transaction the group ordered before its
	// fence has resolved (Table.AwaitGroupDrain fired).
	drained bool
}

// transition is one in-flight epoch change.
type transition struct {
	marker     Marker
	prev, next shard.Router
	// fenced marks the old groups whose fence this replica delivered.
	fenced map[int]bool
	// sources maps each group losing keys to its handoff state.
	sources   map[int]*handoff
	startedAt time.Time
}

// queuedCmd is one gated delivery: a command that reached its new home
// before the keys' handoff completed. It applies — in arrival order —
// once the handoff releases it. groupEpoch pins the group's fence prefix
// at the delivery position: the release-time verdict must be computed
// against the epoch state the command was delivered under, which is
// identical on every replica, not against whatever epoch this replica
// reached by the (timing-dependent) moment of release.
type queuedCmd struct {
	group      int
	groupEpoch uint32
	cmd        command.Command
	ts         timestamp.Timestamp
	done       func(protocol.Result)
	// releasing marks an entry whose apply is in flight: it stays in the
	// queue — still claiming its keys, still ordering later same-key
	// traffic behind it — until the apply returns.
	releasing bool
}

// groupKey scopes the per-key FIFO accounting to one group: the queue
// preserves each group's delivery order per key, while cross-group
// ordering of a migrating key is the handoff protocol's job (tying the
// two together can deadlock a source group's drain on a destination's).
type groupKey struct {
	group int
	key   string
}

// gateVerdict classifies one delivery against the epoch state.
type gateVerdict uint8

const (
	// gatePass: apply now.
	gatePass gateVerdict = iota
	// gateQueue: park until the keys' handoff (or the epoch's install)
	// releases it.
	gateQueue
	// gateStale: routed under an outdated epoch and ordered after the
	// group's fence, with at least one key now homed elsewhere — skip
	// here (deterministically, on every replica) and re-route.
	gateStale
	// gateDropMarker: a cross-shard abort marker that lost to a queued
	// piece of its own group — the piece was ordered first, the marker
	// must not kill the transaction.
	gateDropMarker
)

// fenceEvent is a fence delivery deferred because an earlier transition is
// still in progress; it is replayed when that transition completes.
type fenceEvent struct {
	group  int
	marker Marker
	passed *fencePass
}

// fencePass orders one fence delivery's source-group drain behind the
// fence's own trip down the chain. onFence interprets a fence at its
// delivery point — the verdicts of the group's later deliveries depend on
// it — but a chain that defers (the write-ahead log) may still hold the
// group's earlier deliveries then: commands not yet applied, pieces not
// yet registered. The chain completes a group's deliveries in order, so
// when the fence itself completes they all have; only then may the drain
// snapshot the commit table, and the handoff — which releases the moved
// keys' traffic in their new groups — finish. Its lock is a leaf: nothing
// is called under it.
type fencePass struct {
	mu     sync.Mutex
	passed bool
	then   func()
}

// after runs fn once the fence has passed down the chain — now, if it has.
func (p *fencePass) after(fn func()) {
	p.mu.Lock()
	if !p.passed {
		p.then, fn = fn, nil
	}
	p.mu.Unlock()
	if fn != nil {
		fn()
	}
}

// pass marks the fence applied and runs what waited for that.
func (p *fencePass) pass() {
	p.mu.Lock()
	p.passed = true
	fn := p.then
	p.then = nil
	p.mu.Unlock()
	if fn != nil {
		fn()
	}
}

// Coordinator is one node's rebalancing brain: it drives resizes (Resize),
// installs transitions when fences deliver, gates every group's deliveries
// against the epoch state, runs the state handoff, and retires groups
// after a shrink. One Coordinator serves all of a node's groups. The
// handoff moves no key bytes — the store is node-shared, so it is purely
// ordering (fences, drains, gated commands) — and must stay that way: a
// copy-out/copy-in of the migrating keys could overwrite a cross-shard
// transaction's write landing in between, since commit-table executions
// are exempt from the gate (classifyLocked).
type Coordinator struct {
	cfg Config

	// The declared node-wide nesting order (enforced by caesarlint):
	// the rebalance gate is the outermost lock, the commit table below
	// it, the store innermost. The PR-5 four-arm deadlock came from the
	// gate and the table waiting on each other through callbacks; both
	// now run callbacks outside their locks, and any future nesting must
	// follow this order. The chain lives on the first-acquired lock.
	//caesarlint:lockorder gate < table < store
	mu sync.Mutex
	// Wired by Bind.
	engine *xshard.Engine
	table  *xshard.Table

	// history is the node's routing-epoch history, shared with the commit
	// table and the store: installLocked writes each new epoch into it,
	// and the gate's verdicts rebuild past epochs' routers from it.
	history *shard.Epochs
	epoch   uint32
	shards  int
	// groupEpoch is, per group, the highest epoch the group has passed a
	// fence for (or was created at).
	groupEpoch map[int]uint32
	pending    *transition
	deferred   []fenceEvent

	// queue holds gated deliveries in arrival order; queuedKeys counts
	// queued commands per group and key so later deliveries of the same
	// group on a queued key keep that group's order (FIFO behind the
	// queue).
	queue      []*queuedCmd
	queuedKeys map[groupKey]int
	// handed holds the released entries the chain has taken and not yet
	// completed: out of the queue — their place in their group's apply
	// order is fixed — but still owed to their group as far as a later
	// handoff is concerned (queueHoldsPreEpochLocked).
	handed   map[*queuedCmd]struct{}
	draining bool
	// drainAgain records a drain request that arrived while another
	// goroutine was draining; the active drainer re-runs instead of the
	// wakeup being lost.
	drainAgain bool

	// inners holds each group's inner applier chain for queue drains.
	inners map[int]protocol.Applier

	// Scheduled retirement after a shrink.
	retireTo int
	retireAt time.Time

	// waiters are Resize callers parked until an epoch's transition
	// completes locally.
	waiters []waiter

	running bool
}

type waiter struct {
	epoch uint32
	ch    chan struct{}
}

// NewCoordinatorAt builds a coordinator at a given point of the node's
// routing-epoch history — a fresh node's epoch 0, or the last epoch a
// crash restart recovered: history holds every installed epoch's shard
// count (at least epoch's), and epoch is the last installed one. It must
// be wired to the engines with Bind before traffic flows; its Applier
// method is safe to use while constructing the groups. The node resumes at
// that epoch with no transition in flight — a crash mid-transition is
// safe because with the node-shared store a handoff moves no state and
// gated (queued) deliveries were never acknowledged; the
// groups' fence prefixes are treated as complete at the restored epoch.
func NewCoordinatorAt(cfg Config, history *shard.Epochs, epoch uint32) *Coordinator {
	shards := int(history.Shards(epoch))
	if shards < 1 {
		shards = 1
	}
	co := &Coordinator{
		cfg:        cfg.withDefaults(),
		history:    history,
		epoch:      epoch,
		groupEpoch: make(map[int]uint32),
		queuedKeys: make(map[groupKey]int),
		handed:     make(map[*queuedCmd]struct{}),
		inners:     make(map[int]protocol.Applier),
		shards:     shards,
		retireTo:   -1,
	}
	for g := 0; g < shards; g++ {
		co.groupEpoch[g] = epoch
	}
	return co
}

// Bind wires the coordinator to the node's sharded engine and its commit
// table; the engine's groups must apply through Applier. Fences go to the
// engine's groups, stale pieces are killed in the table, and skipped
// commands are re-proposed through the full routing path (x.Submit). It
// switches x's router to the coordinator's epoch, so a restarted node
// proposes under the epoch it recovered.
func (co *Coordinator) Bind(x *xshard.Engine, table *xshard.Table) {
	co.mu.Lock()
	co.engine = x
	co.table = table
	epoch, shards := co.epoch, co.shards
	co.mu.Unlock()
	x.SetRouter(shard.NewRouterAt(epoch, shards))
}

// Epoch returns the current routing epoch.
func (co *Coordinator) Epoch() uint32 {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.epoch
}

// Shards returns the current epoch's shard count.
func (co *Coordinator) Shards() int {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.shards
}

// Resizing reports whether a transition is in flight locally.
func (co *Coordinator) Resizing() bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.pending != nil
}

// QueuedCommands returns the number of gated deliveries, for tests and
// introspection.
func (co *Coordinator) QueuedCommands() int {
	co.mu.Lock()
	defer co.mu.Unlock()
	return len(co.queue)
}

// DebugState renders the in-flight transition's progress — per-source
// fence/drain state, the pre-epoch queue check, and a queue
// breakdown — for tests and stall diagnostics; empty when idle.
func (co *Coordinator) DebugState() []string {
	co.mu.Lock()
	defer co.mu.Unlock()
	var out []string
	t := co.pending
	if t == nil {
		return out
	}
	out = append(out, fmt.Sprintf("transition epoch=%d %d→%d shards, started=%s",
		t.marker.Epoch, t.marker.PrevShards, t.marker.Shards, t.startedAt.Format("15:04:05.000")))
	for g := 0; g < int(t.marker.PrevShards); g++ {
		h := t.sources[g]
		if h == nil {
			out = append(out, fmt.Sprintf("group %d: fenced=%v (not a source)", g, t.fenced[g]))
			continue
		}
		out = append(out, fmt.Sprintf("group %d: fenced=%v drained=%v preEpochQueued=%v",
			g, t.fenced[g], h.drained, co.queueHoldsPreEpochLocked(g, t.marker.Epoch)))
	}
	counts := make(map[string]int)
	for _, q := range co.queue {
		counts[fmt.Sprintf("group=%d op=%v epoch=%d releasing=%v", q.group, q.cmd.Op, q.cmd.Epoch, q.releasing)]++
	}
	for k, n := range counts {
		out = append(out, fmt.Sprintf("queued %dx %s", n, k))
	}
	sort.Strings(out)
	return out
}

// Start opens the coordinator for resizes. Call it after the engine's
// groups have started. Fence re-proposals and retirements fall due on
// Sweep, which the node stack's maintenance loop calls.
func (co *Coordinator) Start() {
	co.mu.Lock()
	co.running = true
	co.mu.Unlock()
}

// Stop fails every gated delivery with ErrStopped. Call it after the
// engine's groups have stopped, so no delivery reaches the gate any more.
// Idempotent.
func (co *Coordinator) Stop() {
	co.mu.Lock()
	if !co.running {
		co.mu.Unlock()
		return
	}
	co.running = false
	queue := co.queue
	co.queue = nil
	co.queuedKeys = make(map[groupKey]int)
	ws := co.waiters
	co.waiters = nil
	co.mu.Unlock()
	for _, q := range queue {
		// Entries mid-release report through the drainer; failing them
		// here would fire their completion twice.
		if q.done != nil && !q.releasing {
			q.done(protocol.Result{Err: protocol.ErrStopped})
		}
	}
	for _, w := range ws {
		close(w.ch)
	}
}

// fenceTimeout is how long an installed epoch may wait for a group's fence
// before this node re-proposes it (a crashed initiator's propagation is
// finished by survivors).
const fenceTimeout = 2 * time.Second

// Sweep runs one maintenance pass: it re-proposes fences for groups that
// have not delivered theirs within fenceTimeout (staggered by node rank so
// one survivor usually wins) and executes a due retirement. The node
// stack's maintenance loop calls it every tick; every deadline it
// compares is a Config.Now instant.
func (co *Coordinator) Sweep() {
	now := co.cfg.Now()
	var refence []int
	var marker Marker
	co.mu.Lock()
	if t := co.pending; t != nil {
		stagger := time.Duration(int32(co.cfg.Self)) * fenceTimeout / 4
		if now.Sub(t.startedAt) > fenceTimeout+stagger {
			for g := 0; g < int(t.marker.PrevShards); g++ {
				if !t.fenced[g] {
					refence = append(refence, g)
				}
			}
			marker = t.marker
			t.startedAt = now // back off before the next round
		}
	}
	engine := co.engine
	doRetire := co.retireTo >= 0 && now.After(co.retireAt) && co.pending == nil
	retireTo := co.retireTo
	if doRetire {
		co.retireTo = -1
	}
	co.mu.Unlock()

	if len(refence) > 0 && engine != nil {
		if cmd, err := FenceCommand(marker); err == nil {
			for _, g := range refence {
				engine.SubmitTo(g, cmd, nil)
			}
		}
	}
	if doRetire && engine != nil {
		engine.RetireFrom(retireTo)
	}
}

// Applier wraps one group's applier chain with the epoch gate. It must be
// the outermost layer (above the cross-shard interception), so fences and
// epoch checks see every delivery first. A delivery the gate lets through
// goes to the chain's ApplyDeferred, so a chain that completes later (the
// write-ahead log) never parks the gate's caller, and the order in which
// the gate hands deliveries down is the order the chain applies them in.
func (co *Coordinator) Applier(group int, chain protocol.Applier) protocol.Applier {
	co.mu.Lock()
	co.inners[group] = chain
	co.mu.Unlock()
	return &gateApplier{co: co, group: group, inner: chain}
}

// gateApplier is the per-group delivery gate.
type gateApplier struct {
	co    *Coordinator
	group int
	inner protocol.Applier
}

// ApplyDeferred implements protocol.Applier: the gate decides whether the
// delivery goes down the chain now, parks until a handoff completes, or is
// skipped as stale. done fires exactly once: at once for a marker that
// lost to its queued piece, otherwise when the chain completes the command
// or the stand-in a stale one goes down as (this node's own stale command:
// when its re-proposal executes).
func (a *gateApplier) ApplyDeferred(cmd command.Command, ts timestamp.Timestamp, done func(protocol.Result)) {
	a.co.gate(a.group, a.inner, cmd, ts, done)
}

// gate classifies one delivery and carries out the verdict.
func (co *Coordinator) gate(group int, inner protocol.Applier, cmd command.Command, ts timestamp.Timestamp, done func(protocol.Result)) {
	if cmd.Op == command.OpFence {
		co.cfg.Trace.Record(co.cfg.Self, trace.KindFence, cmd.ID, ts)
		passed := new(fencePass)
		if m, err := DecodeMarker(cmd.Payload); err == nil {
			co.onFence(group, m, passed)
		}
		// Pass the fence down the chain after interpreting it: the
		// durable log (below the cross-shard table) must record its
		// delivery — a restarted replica's delivered set has to contain
		// fence IDs, or re-sent decisions listing a fence as predecessor
		// would park forever — and the store ignores fences.
		inner.ApplyDeferred(cmd, ts, func(res protocol.Result) {
			passed.pass()
			done(res)
		})
		return
	}
	co.mu.Lock()
	verdict := co.classifyLocked(group, cmd)
	switch verdict {
	case gateQueue:
		co.queue = append(co.queue, &queuedCmd{
			group:      group,
			groupEpoch: co.groupEpoch[group],
			cmd:        cmd,
			ts:         ts,
			done:       done,
		})
		if cmd.Op != command.OpXCommit {
			// Pieces never join the per-key FIFO relation (see
			// classifyLocked); only state-machine commands claim keys.
			for _, k := range cmd.Keys() {
				co.queuedKeys[groupKey{group: group, key: k}]++
			}
		}
		co.mu.Unlock()
		return
	case gatePass:
		co.mu.Unlock()
		inner.ApplyDeferred(cmd, ts, done)
		return
	default:
		co.mu.Unlock()
		co.finishSkipped(verdict, group, inner, cmd, ts, done)
	}
}

// finishSkipped handles the stale and lost-marker verdicts outside the
// lock; chain is the group's applier chain below the gate.
func (co *Coordinator) finishSkipped(v gateVerdict, group int, chain protocol.Applier, cmd command.Command, ts timestamp.Timestamp, done func(protocol.Result)) {
	if v == gateDropMarker {
		done(protocol.Result{})
		return
	}
	// gateStale: every replica skips at the same point of the group's
	// order (the verdict depends only on the delivered fence prefix). The
	// chain gets a stand-in under the command's ID, epoch and timestamp,
	// so the write-ahead log records the skip at the command's position
	// and the ID in the group's delivered set (a restart must not park a
	// re-sent decision that lists the ID as a predecessor): a piece's
	// group abort marker, a noop for any other command.
	stand, then := command.Command{Op: command.OpNoop}, done
	if cmd.Op == command.OpXCommit {
		// A stale participant piece kills its transaction everywhere,
		// deterministically; the coordinating node's client callback gets
		// ErrEpochRetry and xshard.Engine.Submit re-proposes under the new
		// epoch. The log settles the transaction from the marker, so a
		// restart finds it settled rather than held; the table below has
		// it settled already and ignores the marker.
		p, err := xshard.DecodePiece(cmd.Payload)
		if err != nil {
			done(protocol.Result{})
			return
		}
		co.table.KillStale(int32(group), p.XID)
		stand, _ = xshard.AbortCommand(p.XID, int32(group), nil)
	} else {
		co.mu.Lock()
		engine := co.engine
		co.mu.Unlock()
		if cmd.ID.Node == co.cfg.Self && engine != nil {
			// Re-route this node's own command under the current epoch
			// once the noop is applied; the client callback fires when the
			// re-proposal executes.
			again := cmd
			again.ID = command.ID{}
			then = func(protocol.Result) { engine.Submit(again, done) }
		}
	}
	if chain == nil {
		then(protocol.Result{})
		return
	}
	stand.ID, stand.Epoch = cmd.ID, cmd.Epoch
	chain.ApplyDeferred(stand, ts, then)
}

// classifyLocked is the gate's decision procedure. Everything it reads —
// the group's fence prefix, the command's epoch stamp, the key homes per
// epoch — is identical on every replica at this point of the group's
// delivery order, except the handoff-progress and queue checks, which only
// delay a command without reordering it against its key's other traffic.
func (co *Coordinator) classifyLocked(group int, cmd command.Command) gateVerdict {
	switch cmd.Op {
	case command.OpXAbort:
		// A marker races its piece through the queue too: if the piece
		// was delivered first but parked, the marker lost.
		if ab, err := xshard.DecodeAbort(cmd.Payload); err == nil {
			for _, q := range co.queue {
				if q.group == group && q.cmd.Op == command.OpXCommit {
					if p, err := xshard.DecodePiece(q.cmd.Payload); err == nil && p.XID == ab.XID {
						return gateDropMarker
					}
				}
			}
		}
		return gatePass
	case command.OpNoop:
		return gatePass
	}
	isPiece := cmd.Op == command.OpXCommit
	if !isPiece && co.touchesQueuedLocked(group, cmd) {
		// Keep the group's per-key delivery order: traffic behind a
		// queued state-machine command on the same key queues behind it.
		// Pieces are exempt on both sides of the relation — they neither
		// wait behind queued commands nor hold keys others wait on:
		// piece registration order against same-key commands is already
		// the commit table's documented relaxation window, and keeping
		// pieces out of the FIFO relation is what keeps the queue's
		// wait-graph acyclic (a pre-fence transaction's pieces must
		// register for the handoff drain to finish, and a piece-owned
		// key would let epoch-N handoffs wait on entries that wait on
		// epoch-N handoffs of other groups).
		return gateQueue
	}
	if cmd.Epoch < co.groupEpoch[group] {
		// Routed under an outdated epoch and ordered after this group's
		// fence: stale if any key has moved away, ordinary otherwise. The
		// verdict is computed against the group's own fence prefix
		// (groupEpoch), never this node's global epoch — the prefix is
		// identical on every replica at this delivery position, while the
		// global epoch advances with other groups' fences at
		// replica-dependent times. A piece is stale even on keys that
		// stayed: every piece of a surviving transaction then precedes its
		// group's fence, which the piece hold below relies on.
		if isPiece || co.keysMovedLocked(group, cmd, co.groupEpoch[group]) {
			return gateStale
		}
		return gatePass
	}
	if cmd.Epoch > co.epoch {
		// Routed under an epoch this replica has not installed yet (its
		// first fence is still in flight); park until it is.
		return gateQueue
	}
	if isPiece && cmd.Epoch > co.groupEpoch[group] {
		// A newer epoch's piece ordered before this group's fence: hold it
		// until the fence is delivered. The commit table runs an earlier
		// epoch's transaction first (xshard's epoch-then-merged order), so
		// it must see every one before a later transaction on a shared key
		// can complete. The old epoch's pieces all precede the fence (the
		// stale rule above), so held this way, they register first on
		// every replica. The hold waits on the fence alone — a delivery —
		// never on a drain or a handoff, so it adds no wait-graph edge.
		return gateQueue
	}
	if t := co.pending; t != nil && cmd.Epoch == t.marker.Epoch && co.awaitsHandoffLocked(t, cmd) {
		// The new epoch's traffic on a key whose source group has not
		// handed off yet. For a piece this is the moved-key half of the
		// hold above: the source's drain settles every older transaction
		// on the key before the piece registers. No wait-graph cycle: the
		// drain counts only earlier epochs' transactions, whose pieces the
		// gate never holds (they precede their fences or are stale) and
		// which the table never defers behind a later epoch's. (With a
		// merged-only order pieces had to skip this gate: an old-epoch
		// transaction, complete but deferred behind new-epoch ones whose
		// bounds started low in a fresh group's clock, wedged both hot
		// groups' drains forever.)
		return gateQueue
	}
	return gatePass
}

// touchesQueuedLocked reports whether any key of cmd has queued traffic
// of the same group.
func (co *Coordinator) touchesQueuedLocked(group int, cmd command.Command) bool {
	if len(co.queuedKeys) == 0 {
		return false
	}
	for _, k := range cmd.Keys() {
		if co.queuedKeys[groupKey{group: group, key: k}] > 0 {
			return true
		}
	}
	return false
}

// routerForLocked rebuilds the router of one installed epoch (falling back
// to the current one for an unknown epoch, which cannot happen for any
// epoch a groupEpoch entry holds).
func (co *Coordinator) routerForLocked(epoch uint32) shard.Router {
	if r, ok := co.history.RouterAt(epoch); ok {
		return r
	}
	return shard.NewRouterAt(co.epoch, co.shards)
}

// keysMovedLocked reports whether any key of cmd is homed outside group
// under the given epoch's routing.
func (co *Coordinator) keysMovedLocked(group int, cmd command.Command, epoch uint32) bool {
	router := co.routerForLocked(epoch)
	for _, k := range cmd.Keys() {
		if router.Shard(k) != group {
			return true
		}
	}
	return false
}

// awaitsHandoffLocked reports whether cmd touches a key whose source
// group's handoff is still incomplete.
func (co *Coordinator) awaitsHandoffLocked(t *transition, cmd command.Command) bool {
	for _, k := range cmd.Keys() {
		src := t.prev.Shard(k)
		if src == t.next.Shard(k) {
			continue
		}
		if !co.handoffDoneLocked(t, src) {
			return true
		}
	}
	return false
}

// handoffDoneLocked reports whether one source group's handoff has fully
// completed: its fence delivered, the transactions it ordered pre-fence
// settled, and — for back-to-back resizes — every command of an earlier
// epoch this replica still holds queued for the group applied. The last
// clause keeps a twice-migrating key's history in order: the new epoch's
// destinations may not proceed while a previous transition still owes the
// source an application.
func (co *Coordinator) handoffDoneLocked(t *transition, src int) bool {
	h := t.sources[src]
	if h == nil || !h.drained || !t.fenced[src] {
		return false
	}
	return !co.queueHoldsPreEpochLocked(src, t.marker.Epoch)
}

// queueHoldsPreEpochLocked reports whether a command for the group routed
// under an epoch older than the given one is still queued, or released to
// a chain that has not completed it yet.
func (co *Coordinator) queueHoldsPreEpochLocked(group int, epoch uint32) bool {
	for _, q := range co.queue {
		if q.group == group && q.cmd.Epoch < epoch {
			return true
		}
	}
	for q := range co.handed {
		if q.group == group && q.cmd.Epoch < epoch {
			return true
		}
	}
	return false
}

// onFence processes one resize marker delivered by a group — the point
// where this replica's epoch state advances. passed tells when the fence
// command itself has gone down the group's chain (see fencePass).
func (co *Coordinator) onFence(group int, m Marker, passed *fencePass) {
	co.mu.Lock()
	if m.Epoch > co.epoch && co.pending != nil && m != co.pending.marker {
		// A fence beyond the transition in progress: replay when it
		// completes (fences of one group always arrive in epoch order,
		// but the first sighting of a future epoch can outrun an older
		// transition still handing off).
		co.deferred = append(co.deferred, fenceEvent{group: group, marker: m, passed: passed})
		co.mu.Unlock()
		return
	}
	if co.pending == nil {
		if m.Epoch != co.epoch+1 || int(m.PrevShards) != co.shards {
			// A duplicate of an installed epoch's fence, or a competing
			// marker that lost its epoch to an earlier delivery.
			co.mu.Unlock()
			return
		}
		if !co.installLocked(m) {
			co.mu.Unlock()
			return
		}
	}
	t := co.pending
	if t == nil || t.marker != m || t.fenced[group] {
		co.mu.Unlock()
		return
	}
	t.fenced[group] = true
	if co.groupEpoch[group] < m.Epoch {
		co.groupEpoch[group] = m.Epoch
	}
	h := t.sources[group]
	table := co.table
	co.mu.Unlock()

	if h != nil && table != nil {
		// Source group: wait for the earlier epochs' transactions this
		// group ordered pre-fence to settle — all of them, so the set is
		// taken once every pre-fence delivery has reached the table.
		passed.after(func() {
			table.AwaitGroupDrain(int32(group), m.Epoch, func() {
				co.mu.Lock()
				if co.pending == t {
					h.drained = true
				}
				co.mu.Unlock()
				co.advance()
			})
		})
	}
	co.advance()
}

// installLocked switches this replica to a new epoch: record it, create
// the groups it needs (buffered traffic drains into them), switch the
// proposer-side router, and start tracking the transition. A scheduled
// retirement still pending from the previous shrink is executed first —
// outside the lock (stopping a group joins its delivery goroutine, which
// may be waiting on this mutex) — so a growth resize revives fresh group
// instances instead of adopting half-retired ones. Returns false when a
// concurrent delivery won the install during that unlocked window.
func (co *Coordinator) installLocked(m Marker) bool {
	if co.retireTo >= 0 {
		retireTo := co.retireTo
		co.retireTo = -1
		engine := co.engine
		co.mu.Unlock()
		if engine != nil {
			engine.RetireFrom(retireTo)
		}
		co.mu.Lock()
		if co.pending != nil {
			// A concurrent delivery installed during the unlocked
			// window. The same marker: our caller proceeds against the
			// installed transition — dropping this group's fence event
			// would shift this replica's epoch cut for the group to a
			// later re-proposed fence and diverge from its peers. A
			// different marker: ours lost, drop it.
			return co.pending.marker == m
		}
		if m.Epoch != co.epoch+1 {
			return false
		}
	}
	t := &transition{
		marker:    m,
		prev:      shard.NewRouterAt(m.Epoch-1, int(m.PrevShards)),
		next:      shard.NewRouterAt(m.Epoch, int(m.Shards)),
		fenced:    make(map[int]bool),
		sources:   make(map[int]*handoff),
		startedAt: co.cfg.Now(),
	}
	if m.Shards > m.PrevShards {
		// Growth moves keys out of every old group into the new ones.
		for g := 0; g < int(m.PrevShards); g++ {
			t.sources[g] = &handoff{}
		}
	} else {
		// A shrink moves only the retired groups' keys.
		for g := int(m.Shards); g < int(m.PrevShards); g++ {
			t.sources[g] = &handoff{}
		}
	}
	co.pending = t
	co.epoch = m.Epoch
	co.shards = int(m.Shards)
	co.history.Install(m.Epoch, m.Shards)
	for g := int(m.PrevShards); g < int(m.Shards); g++ {
		co.groupEpoch[g] = m.Epoch
	}
	if co.cfg.Journal != nil {
		// Durable before any delivery can observe the new epoch (they
		// classify under co.mu, which we hold until the install's own
		// unlocked window below).
		co.cfg.Journal(m)
	}
	co.cfg.Flight.Eventf(flight.KindEpoch,
		"epoch %d installed: %d -> %d group(s)", m.Epoch, m.PrevShards, m.Shards)
	if engine := co.engine; engine != nil {
		co.mu.Unlock()
		if m.Shards > m.PrevShards {
			_ = engine.EnsureGroups(int(m.Shards), int32(m.Epoch))
		}
		engine.SetRouter(t.next)
		co.mu.Lock()
	}
	return true
}

// retireDelay is the grace between a shrink completing and the retired
// groups stopping, covering stragglers still proposing under the old epoch.
const retireDelay = 3 * time.Second

// advance drains releasable queued commands and completes the transition
// when every fence has landed and every source handoff is done. A queue
// release can itself complete a handoff (the back-to-back clause of
// handoffDoneLocked) and a completion can release further queue entries,
// so the pass loops to a fixpoint.
func (co *Coordinator) advance() {
	for {
		progress := co.drainQueue()
		var release []waiter
		var replay []fenceEvent
		co.mu.Lock()
		if t := co.pending; t != nil && co.transitionDoneLocked(t) {
			co.pending = nil
			if int(t.marker.Shards) < int(t.marker.PrevShards) {
				co.retireTo = int(t.marker.Shards)
				co.retireAt = co.cfg.Now().Add(retireDelay)
			}
			kept := co.waiters[:0]
			for _, w := range co.waiters {
				if w.epoch <= co.epoch {
					release = append(release, w)
				} else {
					kept = append(kept, w)
				}
			}
			co.waiters = kept
			replay = co.deferred
			co.deferred = nil
		}
		co.mu.Unlock()
		for _, w := range release {
			close(w.ch)
		}
		for _, ev := range replay {
			co.onFence(ev.group, ev.marker, ev.passed) // re-enters advance; drains nest safely
		}
		if !progress && len(release) == 0 && len(replay) == 0 {
			return
		}
	}
}

// transitionDoneLocked reports whether every old group fenced and every
// source handed off.
func (co *Coordinator) transitionDoneLocked(t *transition) bool {
	for g := 0; g < int(t.marker.PrevShards); g++ {
		if !t.fenced[g] {
			return false
		}
	}
	for src := range t.sources {
		if !co.handoffDoneLocked(t, src) {
			return false
		}
	}
	return true
}

// drainQueue scans the queue and applies every entry that is no longer
// gated and has no earlier same-group entry sharing a key with it (the
// per-group per-key delivery order), reporting whether anything was
// released. A release can ungate later — or, through a completed handoff,
// earlier — entries, so the scan loops to a fixpoint. Only one goroutine
// drains at a time, so releases of ordered pairs keep their arrival
// order. Head-of-line blocking across unrelated groups and keys does not
// exist: an entry waits only on its own gates and its own key
// predecessors, which is also what keeps the wait-graph acyclic across
// back-to-back resizes.
func (co *Coordinator) drainQueue() bool {
	progress := false
	co.mu.Lock()
	if co.draining {
		// The active drainer picks this request up after its pass — a
		// bail without the flag would lose e.g. a handoff-completion
		// wakeup that arrived mid-scan, leaving released commands parked
		// forever.
		co.drainAgain = true
		co.mu.Unlock()
		return false
	}
	co.draining = true
	for {
		changed := co.drainAgain
		co.drainAgain = false
		for i := 0; i < len(co.queue); i++ {
			q := co.queue[i]
			if q.releasing || co.stillGatedLocked(q) || co.orderedBehindLocked(i) {
				continue
			}
			// Keep the entry in place (keys claimed, later same-key
			// traffic held back) while the apply runs outside the lock.
			q.releasing = true
			verdict := co.classifyReleasedLocked(q)
			inner := co.inners[q.group]
			skip := verdict == gateStale || verdict == gateDropMarker
			if !skip && inner != nil {
				co.handed[q] = struct{}{}
			}
			co.mu.Unlock()
			progress, changed = true, true
			switch {
			case skip:
				co.finishSkipped(verdict, q.group, inner, q.cmd, q.ts, q.done)
			case inner != nil:
				// Handing the command down fixes its place in the
				// chain's apply order; the entry can leave the queue
				// whether or not the chain has completed it yet.
				inner.ApplyDeferred(q.cmd, q.ts, func(res protocol.Result) {
					q.done(res)
					co.landed(q)
				})
			default:
				q.done(protocol.Result{})
			}
			co.mu.Lock()
			for j, e := range co.queue {
				if e == q {
					co.queue = append(co.queue[:j], co.queue[j+1:]...)
					break
				}
			}
			if q.cmd.Op != command.OpXCommit {
				for _, k := range q.cmd.Keys() {
					gk := groupKey{group: q.group, key: k}
					if co.queuedKeys[gk]--; co.queuedKeys[gk] <= 0 {
						delete(co.queuedKeys, gk)
					}
				}
			}
			// Indexes shifted under us while unlocked; keep scanning
			// forward — anything skipped is caught by the outer fixpoint
			// pass (restarting here would make a big drain quadratic).
			i--
		}
		if !changed {
			break
		}
	}
	co.draining = false
	co.mu.Unlock()
	return progress
}

// landed notes that the chain completed a released entry; a handoff that
// was waiting for just that can now finish.
func (co *Coordinator) landed(q *queuedCmd) {
	co.mu.Lock()
	delete(co.handed, q)
	waiting := co.pending != nil
	co.mu.Unlock()
	if waiting {
		co.advance()
	}
}

// orderedBehindLocked reports whether queue entry i must wait for an
// earlier entry: both are state-machine commands of the same group
// sharing a key, so their group's delivery order binds them. Pieces take
// part on neither side (see classifyLocked).
func (co *Coordinator) orderedBehindLocked(i int) bool {
	q := co.queue[i]
	if q.cmd.Op == command.OpXCommit {
		return false
	}
	for j := 0; j < i; j++ {
		p := co.queue[j]
		if p.group != q.group || p.cmd.Op == command.OpXCommit {
			continue
		}
		for _, k := range q.cmd.Keys() {
			for _, pk := range p.cmd.Keys() {
				if k == pk {
					return true
				}
			}
		}
	}
	return false
}

// stillGatedLocked reports whether a queued entry must keep waiting: its
// epoch is not installed yet, it is a piece whose group has not fenced its
// epoch, or a handoff it depends on is incomplete (see classifyLocked).
func (co *Coordinator) stillGatedLocked(q *queuedCmd) bool {
	if q.cmd.Epoch > co.epoch {
		return true
	}
	if q.cmd.Op == command.OpXCommit && q.cmd.Epoch > co.groupEpoch[q.group] {
		return true
	}
	if t := co.pending; t != nil && q.cmd.Epoch == t.marker.Epoch && co.awaitsHandoffLocked(t, q.cmd) {
		return true
	}
	return false
}

// classifyReleasedLocked re-judges a released command against the fence
// prefix recorded at its delivery position (q.groupEpoch), NOT the epoch
// this replica has reached by release time: the delivery position is
// identical on every replica, the release moment is not, and judging by
// the latter would let one replica skip what another applied.
func (co *Coordinator) classifyReleasedLocked(q *queuedCmd) gateVerdict {
	if q.cmd.Epoch < q.groupEpoch && co.keysMovedLocked(q.group, q.cmd, q.groupEpoch) {
		return gateStale
	}
	return gatePass
}

// Resize changes the deployment's consensus-group count to shards, live:
// it proposes the resize marker through group 0 — whose total order of
// fences decides the epoch cluster-wide — propagates it to every other
// existing group, and waits until this node's transition completes (every
// fence delivered, every source group's state handed off). Other nodes
// complete on their own as their fences deliver; survivors re-propose
// missing fences, so a crashed initiator cannot wedge the transition.
//
// Returns nil when the resize completed locally, ErrResizeConflict when a
// concurrent resize won the epoch (the deployment resized, but to the
// winner's count), ErrResizeInProgress when called mid-transition, or the
// context's error. A no-op resize (shards == current) returns nil
// immediately, and a count outside [1, shard.MaxGroups] an error before
// anything is proposed.
func (co *Coordinator) Resize(ctx context.Context, shards int) error {
	if !shard.ValidGroups(shards) {
		return fmt.Errorf("rebalance: invalid shard count %d, want 1..%d", shards, shard.MaxGroups)
	}
	co.mu.Lock()
	if co.pending != nil {
		co.mu.Unlock()
		return ErrResizeInProgress
	}
	if shards == co.shards {
		co.mu.Unlock()
		return nil
	}
	m := Marker{Epoch: co.epoch + 1, Shards: int32(shards), PrevShards: int32(co.shards)}
	engine := co.engine
	co.mu.Unlock()
	co.cfg.Flight.Eventf(flight.KindResize,
		"resize initiated here: epoch %d, %d -> %d group(s)", m.Epoch, m.PrevShards, m.Shards)

	fence, err := FenceCommand(m)
	if err != nil {
		return err
	}
	// Decide: group 0 serializes competing resizes, and the history keeps
	// the first marker of each epoch.
	if err := submitFence(ctx, engine, 0, fence); err != nil {
		return err
	}
	if co.history.Shards(m.Epoch) != m.Shards {
		return ErrResizeConflict
	}
	// Fence the remaining old groups (Sweep finishes this if we crash or
	// a submission is lost).
	errs := make(chan error, int(m.PrevShards))
	for g := 1; g < int(m.PrevShards); g++ {
		go func(g int) { errs <- submitFence(ctx, engine, g, fence) }(g)
	}
	for g := 1; g < int(m.PrevShards); g++ {
		if err := <-errs; err != nil && ctx.Err() != nil {
			return err
		}
	}
	// Hand off: wait for the local transition to finish. The waiter
	// channel also closes when the coordinator stops mid-transition, so
	// completion is re-checked from state, not inferred from the wakeup.
	select {
	case <-co.WaitEpoch(m.Epoch):
	case <-ctx.Done():
		return ctx.Err()
	}
	co.mu.Lock()
	completed := co.epoch >= m.Epoch && co.pending == nil
	co.mu.Unlock()
	if !completed {
		return protocol.ErrStopped
	}
	return nil
}

// submitFence proposes the fence to one group and waits for its local
// delivery.
func submitFence(ctx context.Context, engine *xshard.Engine, group int, fence command.Command) error {
	ch := make(chan protocol.Result, 1)
	engine.SubmitTo(group, fence, func(res protocol.Result) { ch <- res })
	select {
	case res := <-ch:
		return res.Err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// WaitEpoch parks until the transition installing epoch has completed
// locally (fences delivered, handoffs done); it returns immediately when
// the epoch is already current and idle. The returned channel closes on
// completion or coordinator stop.
func (co *Coordinator) WaitEpoch(epoch uint32) <-chan struct{} {
	ch := make(chan struct{})
	co.mu.Lock()
	if (co.epoch >= epoch && co.pending == nil) || !co.runningLocked() {
		co.mu.Unlock()
		close(ch)
		return ch
	}
	co.waiters = append(co.waiters, waiter{epoch: epoch, ch: ch})
	co.mu.Unlock()
	return ch
}

func (co *Coordinator) runningLocked() bool { return co.running }
