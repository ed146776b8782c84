// Package stack builds one node's full engine stack — store, node-level
// applier, cross-shard commit table, live-rebalancing coordinator,
// sharded fan-out and (optionally) the durable write-ahead log — from a
// single description. The public caesar package, cmd/caesar-server and
// the repository's benchmark (bench/) all construct nodes through it, so
// a new layer threaded here lands in every deployment path at once.
//
// Layer order per consensus group, outermost first:
//
//	rebalance gate → write-ahead log → cross-shard table → node applier
//
// The gate must see fences before anything else. A stale delivery
// reaches the log only as a stand-in under its ID — a transaction piece
// as its group's abort marker, so the log settles the transaction the
// gate killed, any other command as a noop — so a restarted replica's
// delivered set holds the ID and replay applies what the live path did. The
// log sits above the commit table so a transaction piece is durable, and
// in the recovered delivered set, before the table can react to it; the
// transaction's effects are logged separately when the table executes
// it. Below the table only plain state-machine commands remain, applied
// exactly as replay re-applies them.
//
// On a durable node the log is also where a delivery leaves its group's
// event loop: the gate forwards ApplyDeferred to the log, the log appends
// and returns, and everything below it — table, applier, the client and
// GC acknowledgements — runs on the log's one completion goroutine, after
// the sync that covers the record, in log order across every group.
//
// Time enters a node in one place: every timer a stack-built layer keeps
// (fence re-proposals, orphaned-transaction resolution, watchdog scans,
// snapshot checks) falls due on Stack.Tick, against Config.Now. A node
// with an injected clock runs none of them unless its clock's owner calls
// Tick.
package stack

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/caesar-consensus/caesar/internal/audit"
	"github.com/caesar-consensus/caesar/internal/batch"
	"github.com/caesar-consensus/caesar/internal/caesar"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/contend"
	"github.com/caesar-consensus/caesar/internal/flight"
	"github.com/caesar-consensus/caesar/internal/kvstore"
	"github.com/caesar-consensus/caesar/internal/metrics"
	"github.com/caesar-consensus/caesar/internal/obs"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/reads"
	"github.com/caesar-consensus/caesar/internal/rebalance"
	"github.com/caesar-consensus/caesar/internal/shard"
	"github.com/caesar-consensus/caesar/internal/trace"
	"github.com/caesar-consensus/caesar/internal/transport"
	"github.com/caesar-consensus/caesar/internal/wal"
	"github.com/caesar-consensus/caesar/internal/xshard"
)

// ackProber is the optional engine facet the watchdog's "unacked" probe
// samples: the oldest locally submitted command whose client callback
// has not fired. CAESAR replicas implement it; engines that don't are
// simply not probed.
type ackProber interface {
	OldestUnacked() (command.ID, time.Time, bool)
}

// BuildEngine constructs one consensus group's engine on its transport
// channel. app is the group's fully layered applier chain; seed carries
// the group's crash-recovery inputs (zero without a data dir) — engines
// that support durable restart (CAESAR) wire it into their config,
// others may ignore it. met is the group's child recorder
// (metrics.Recorder.Group of Config.Metrics, already registered with the
// observability registry under a group label); nil when the node has no
// recorder — engines treat that as "allocate a private one". ctd is the
// group's contention sketch (Stack.Contend's, always non-nil) — engines
// that attribute contention (CAESAR) wire it into their config, others
// ignore it.
type BuildEngine func(group int, ep transport.Endpoint, app protocol.Applier, seed wal.GroupSeed, met *metrics.Recorder, ctd *contend.Group) protocol.Engine

// CaesarEngine is the BuildEngine of every CAESAR deployment: base is the
// node-wide engine config, and each group runs a copy with its child
// recorder, contention sketch, flight-group label and crash-recovery seed
// filled in.
func CaesarEngine(base caesar.Config) BuildEngine {
	return func(g int, ep transport.Endpoint, app protocol.Applier, seed wal.GroupSeed, met *metrics.Recorder, ctd *contend.Group) protocol.Engine {
		cfg := base
		if met != nil {
			cfg.Metrics = met
		}
		cfg.Contend = ctd
		cfg.FlightGroup = int32(g)
		cfg.Predelivered = seed.Delivered
		cfg.SeqFloor = seed.SeqFloor
		cfg.ClockSeed = seed.ClockSeed
		cfg.ReserveSeq = seed.ReserveSeq
		cfg.ReserveClock = seed.ReserveClock
		return caesar.New(ep, app, cfg)
	}
}

// Config describes the node to build.
type Config struct {
	// Shards is the consensus-group count; < 1 builds one group, and above
	// shard.MaxGroups Build fails. Every count builds the same node: the
	// commit table and an xshard.Engine over G groups. A recovered data
	// dir's routing epoch overrides it — the durable truth about the
	// deployment's group count beats a restart flag.
	Shards int
	// Store is the node's key-value store; nil creates one. Recovery
	// imports the replayed state into it before any engine starts.
	Store *kvstore.Store
	// Applier is the node state machine transactions and commands
	// execute against; nil wraps Store in the batch unpacker. The
	// benchmark's traced runs wrap it here to time the apply.
	Applier protocol.TimestampedAtomicApplier
	// Metrics receives commit-table and fsync measurements; may be nil.
	// Each consensus group gets a child recorder (Metrics.Group) so the
	// per-group decision counters stay separable while node totals keep
	// aggregating here.
	Metrics *metrics.Recorder
	// Obs, when non-nil, receives every subsystem's metric families as
	// the stack wires them: per-group consensus counters, node latency
	// histograms, commit-table occupancy, WAL segment/snapshot gauges and
	// rebalance epoch state. May be nil (no observability surface).
	Obs *obs.Registry
	// Trace, when non-nil, is threaded through the WAL, the cross-shard
	// commit table and the rebalance coordinator so their milestones
	// (fsync, tx hold/exec/abort, fences) land in the same ring the
	// consensus engines record into — Config.Build must hand the same
	// ring to the engines it constructs for the spine to be complete.
	Trace *trace.Ring
	// DataDir enables the durable write-ahead log (internal/wal): every
	// applied command survives a crash, and a node rebuilt from the same
	// dir replays snapshot + log tail and rejoins. Empty disables
	// durability (the pre-existing purely in-memory behavior).
	DataDir string
	// Rebalance layers live resizing over the node's groups. Requires
	// engines that deliver OpFence markers (CAESAR); deployments of other
	// protocols leave it false.
	Rebalance bool
	// Flight, when non-nil, is the node's flight recorder: the stack
	// threads it into the write-ahead log (snapshot events) and the
	// rebalance coordinator (resize/epoch events), aligns its clock with
	// Now, and hands it to the stall watchdog. Config.Build must thread
	// the same recorder into the engines it constructs (like Trace) for
	// recovery/suspect/retransmit events to land in the same journal.
	Flight *flight.Recorder
	// StallThreshold is the stall watchdog's trip threshold: every node
	// runs one that scans the commit table's oldest held transaction,
	// the write-ahead log's oldest unsynced record, the read engine's
	// oldest parked fence and each group engine's oldest unacknowledged
	// command against it. Default 10s.
	StallThreshold time.Duration
	// WatchdogInterval is how often the maintenance loop runs a watchdog
	// scan, measured on Now. Default 1s.
	WatchdogInterval time.Duration
	// OnStall fires once per healthy→stalled transition with the
	// watchdog's assembled diagnosis; it must not block.
	OnStall func(*flight.Diagnosis)
	// OnDivergence fires when a cross-replica auditor proves this node is
	// involved in an applied-state divergence (NoteDivergence); it must
	// not block. The flight journal entry and the
	// caesar_audit_divergence_total counter fire regardless.
	OnDivergence func(audit.Divergence)
	// Now is the clock every stack-built layer measures and times out
	// against: the read engine's latency stamps, the WAL's fsync
	// measurements, the commit table's and the rebalance coordinator's
	// deadlines, the trace ring's and the flight recorder's stamps.
	// Default time.Now; inject a fake to drive the whole node under
	// simulated time. Injecting Now hands the caller every timer: the
	// node runs no maintenance loop, so it snapshots, resolves orphaned
	// transactions, re-proposes fences and scans for stalls only when
	// whoever advances the clock calls Stack.Tick. Engines built by Build
	// must be given the same clock for the node's timeline to be coherent.
	Now func() time.Time
	// Build constructs each group's engine. Required.
	Build BuildEngine
}

// Stack is one built node.
type Stack struct {
	// Engine is the node's submission engine, over every group the node
	// runs — one or many.
	Engine *xshard.Engine
	// Store is the node's (possibly recovered) store.
	Store *kvstore.Store
	// Coordinator is the live-rebalancing coordinator — Resize, the
	// routing epoch and the resize state; nil unless Config.Rebalance.
	// Start and Stop run it beside Engine.
	Coordinator *rebalance.Coordinator
	// Reads is the node-local read engine (internal/reads): linearizable
	// single-key reads and cross-shard snapshot reads served from Store
	// without a proposal. Always constructed; a group whose engine exposes
	// no read frontier (CAESAR does) answers reads.ErrUnavailable.
	Reads *reads.Engine
	// Table is the cross-shard commit table; never nil.
	Table *xshard.Table
	// Log is the write-ahead log; nil without a data dir.
	Log *wal.Log
	// Recovered is the state replayed from the data dir; nil without one.
	Recovered *wal.State
	// Shards is the group count actually built (after epoch recovery).
	Shards int
	// Flight is the node's flight recorder (Config.Flight, echoed for
	// callers that build through opaque wiring); nil when none was given.
	Flight *flight.Recorder
	// Contend is the node's contention profile (internal/contend): each
	// consensus group records hot-key attribution and fast-path losses
	// into its Group sketch, and the aggregate serves /workloadz and the
	// caesar_contention_*/caesar_hotkey_* families. The sketch is bounded
	// and lock-cheap, so it is always on; never nil.
	Contend *contend.Profile
	// Watchdog is the node's stall watchdog; never nil. The maintenance
	// loop, or Tick, runs its scans.
	Watchdog *flight.Watchdog

	now       func() time.Time
	scanEvery time.Duration

	// mu guards the lifecycle and the maintenance cadences' next-due
	// instants. quit and done are the maintenance loop's, nil on a node
	// whose clock was injected. busy is set while the loop's worker runs
	// a maintenance pass, and work lets Stop join it.
	mu                 sync.Mutex
	started, stopped   bool
	quit, done         chan struct{}
	nextScan, nextSnap time.Time
	busy               atomic.Bool
	work               sync.WaitGroup

	ackMu  sync.Mutex
	ackers []ackProber

	// Audit surface: the node's identity for /auditz reports, the
	// divergence sink's counter and the configured callback.
	self         string
	onDivergence func(audit.Divergence)
	divergences  atomic.Uint64
}

// Build constructs the node stack. Nothing is started; call Start.
func Build(ep transport.Endpoint, cfg Config) (*Stack, error) {
	if cfg.Build == nil {
		return nil, errors.New("stack: Config.Build is required")
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	store := cfg.Store
	if store == nil {
		store = kvstore.New()
	}
	app := cfg.Applier
	if app == nil {
		app = batch.NewApplier(store)
	}
	s := &Stack{Store: store, Flight: cfg.Flight, now: cfg.Now, scanEvery: cfg.WatchdogInterval}
	if s.now == nil {
		s.now = time.Now
		s.quit, s.done = make(chan struct{}), make(chan struct{})
	}
	if s.scanEvery <= 0 {
		s.scanEvery = time.Second
	}
	s.self = ep.Self().String()
	s.onDivergence = cfg.OnDivergence
	// The node's routing-epoch history, its only copy: the store's digest
	// folds attribute each write to a group via (key, routing epoch), the
	// commit table keys abort markers by a transaction's epoch, and the
	// rebalance coordinator judges deliveries by past epochs' routers. The
	// store needs it before recovery replays any command. It is written
	// from three places: the WAL's recovered history (OnEpoch below), the
	// initial-epoch seed once the final shard count is known, and the
	// coordinator's live installs.
	history := shard.NewEpochs()
	store.SetGroupFn(history.GroupOf)
	if cfg.Now != nil {
		cfg.Flight.SetNow(cfg.Now)
		cfg.Trace.SetNow(cfg.Now)
	}
	// The read engine attaches each group's read frontier as the group is
	// built — including groups a live resize adds later, which come
	// through the same buildGroup closure.
	rd := reads.New(store, cfg.Metrics)
	rd.SetNow(cfg.Now)
	s.Reads = rd
	ctd := contend.NewProfile(0)
	s.Contend = ctd
	rd.SetContend(ctd)
	cfg.Obs.RegisterNodeRecorder(cfg.Metrics)
	buildGroup := func(g int, sep transport.Endpoint, app protocol.Applier, seed wal.GroupSeed) protocol.Engine {
		gm := cfg.Metrics.Group()
		cfg.Obs.RegisterRecorder(obs.Labels{"group": strconv.Itoa(g)}, gm)
		s.registerContention(cfg.Obs, g, ctd.Group(g))
		eng := cfg.Build(g, sep, app, seed, gm, ctd.Group(g))
		if gr, ok := eng.(reads.GroupReader); ok {
			rd.Attach(g, gr)
		}
		if ap, ok := eng.(ackProber); ok {
			s.ackMu.Lock()
			s.ackers = append(s.ackers, ap)
			s.ackMu.Unlock()
		}
		return eng
	}

	var log *wal.Log
	var st *wal.State
	if cfg.DataDir != "" {
		var err error
		log, st, err = wal.OpenInto(cfg.DataDir, store, wal.Options{
			Metrics: cfg.Metrics,
			Trace:   cfg.Trace,
			Flight:  cfg.Flight,
			Self:    ep.Self(),
			Now:     cfg.Now,
			OnEpoch: func(ec wal.EpochChange) { history.Install(ec.Epoch, ec.Shards) },
		})
		if err != nil {
			return nil, err
		}
		if ec, ok := st.CurrentEpoch(); ok {
			cfg.Shards = max(int(ec.Shards), 1)
		} else if !st.Empty {
			// Records but no epoch history: the dir was written by a
			// one-group node before every node logged its epoch 0.
			cfg.Shards = 1
		}
		s.Log = log
		s.Recovered = st
	}
	shards := cfg.Shards
	if !shard.ValidGroups(shards) {
		if log != nil {
			log.Close()
		}
		return nil, fmt.Errorf("stack: %d consensus groups, a node runs at most %d", shards, shard.MaxGroups)
	}
	s.Shards = shards
	// Fresh deployments (and non-durable ones) never see an epoch-0
	// record; seed the history once the final shard count is known. A
	// recovered history already installed the true epoch-0 count above,
	// and the first install wins, so the post-resize count never
	// overwrites it.
	history.Install(0, int32(shards))

	wrap := func(g int, inner protocol.TimestampedApplier) protocol.Applier {
		if log == nil {
			return protocol.Sync(inner)
		}
		return log.GroupApplier(g, inner)
	}
	seedFor := func(g int) wal.GroupSeed {
		var seed wal.GroupSeed
		if st != nil {
			seed = st.GroupSeed(int32(g))
		}
		if log != nil {
			group := int32(g)
			seed.ReserveSeq = func(upto uint64) { _ = log.ReserveSeq(group, upto) }
			seed.ReserveClock = func(upto uint64) { _ = log.LogClock(group, upto) }
		}
		return seed
	}

	// The epoch history must be durable from the very first record, or a
	// restart could not know the group count.
	if log != nil && len(st.Epochs) == 0 {
		if err := log.LogEpoch(wal.EpochChange{Epoch: 0, Shards: int32(shards), PrevShards: int32(shards)}); err != nil {
			log.Close()
			return nil, err
		}
	}
	tcfg := xshard.TableConfig{Self: ep.Self(), Exec: app, Metrics: cfg.Metrics, Trace: cfg.Trace, Now: cfg.Now, Contend: ctd}
	if log != nil {
		tcfg.ApplyTx = log.TxApplier(app)
		tcfg.XIDFloor = st.XIDFloor()
		tcfg.ReserveXID = log.ReserveXID
	}
	table := xshard.NewTable(tcfg, history)
	s.Table = table
	if st != nil {
		table.SeedSettled(st.Settled)
		for _, p := range st.PendingTx {
			table.SeedPending(p.XID, p.Groups, p.Ops, p.Epoch, p.Got, p.Merged)
		}
	}
	gens := st.Generations(shards) // nil-safe: zeros for a fresh node

	// chain composes one group's layers in the package comment's order.
	chain := func(g int) protocol.Applier { return wrap(g, table.Applier(g, app)) }
	var co *rebalance.Coordinator
	if cfg.Rebalance {
		rcfg := rebalance.Config{Self: ep.Self(), Trace: cfg.Trace, Flight: cfg.Flight, Now: cfg.Now}
		if log != nil {
			rcfg.Journal = func(m rebalance.Marker) {
				_ = log.LogEpoch(wal.EpochChange{Epoch: m.Epoch, Shards: m.Shards, PrevShards: m.PrevShards})
			}
		}
		current, _ := st.CurrentEpoch() // nil-safe: epoch 0 for a fresh node
		co = rebalance.NewCoordinatorAt(rcfg, history, current.Epoch)
		below := chain
		chain = func(g int) protocol.Applier { return co.Applier(g, below(g)) }
	}
	xe := xshard.NewEngine(ep, gens, table, func(g int, sep transport.Endpoint) protocol.Engine {
		return buildGroup(g, sep, chain(g), seedFor(g))
	})
	rd.Bind(xe.Router, table)
	ctd.SetGroupOf(func(k string) int { return xe.Router().Shard(k) })
	s.Engine = xe
	if co != nil {
		co.Bind(xe, table)
		s.Coordinator = co
	}
	s.finish(ep, cfg)
	return s, nil
}

// finish completes a built stack: the scrape-time gauges, the process
// runtime gauges, the /tracez collection endpoint and the stall watchdog
// with its probes, sections, counters and /debugz endpoint.
func (s *Stack) finish(ep transport.Endpoint, cfg Config) {
	s.registerGauges(cfg.Obs)
	obs.RegisterRuntime(cfg.Obs)
	if cfg.Trace != nil {
		cfg.Obs.Handle("/tracez", trace.Handler(ep.Self(), cfg.Trace))
	}
	if cfg.Obs != nil {
		cfg.Obs.Handle("/auditz", audit.Handler(s.AuditReport))
		cfg.Obs.Handle("/workloadz", s.Contend.Handler())
		s.registerHotKeys(cfg.Obs)
	}
	wd := flight.NewWatchdog(flight.Config{
		Self:      ep.Self(),
		Now:       cfg.Now,
		Threshold: cfg.StallThreshold,
		Recorder:  cfg.Flight,
		Trace:     cfg.Trace,
		OnStall:   cfg.OnStall,
	})
	t := s.Table
	wd.AddProbe(flight.Probe{Name: "held-tx", Sample: func(now time.Time) (flight.Sample, bool) {
		xid, since, cmd, ok := t.OldestHeld()
		if !ok {
			return flight.Sample{}, false
		}
		return flight.Sample{
			Detail: fmt.Sprintf("transaction %v held in commit table", xid),
			Age:    now.Sub(since),
			Cmd:    cmd,
		}, true
	}})
	wd.AddSection("commit table", func() string { return strings.Join(t.PendingDetail(), "\n") })
	wd.AddSection("drain waiters", func() string { return strings.Join(t.DebugDrainWaiters(), "\n") })
	if l := s.Log; l != nil {
		// The event loops do not wait for the disk, so a stalled one shows
		// here — a queue that grows and ages — and nowhere else.
		wd.AddProbe(flight.Probe{Name: "wal-pending", Sample: func(time.Time) (flight.Sample, bool) {
			st := l.Stats()
			if st.Pending == 0 {
				return flight.Sample{}, false
			}
			return flight.Sample{
				Detail: fmt.Sprintf("%d write-ahead log record(s) appended, oldest not yet synced and applied", st.Pending),
				Age:    st.OldestPending,
			}, true
		}})
	}
	if rd := s.Reads; rd != nil {
		wd.AddProbe(flight.Probe{Name: "read-fence", Sample: func(now time.Time) (flight.Sample, bool) {
			keys, since, ok := rd.OldestPending()
			if !ok {
				return flight.Sample{}, false
			}
			return flight.Sample{
				Detail: fmt.Sprintf("read of %v parked at its fence", keys),
				Age:    now.Sub(since),
			}, true
		}})
	}
	// The unacked probe spans every group engine, including groups a live
	// resize adds after Build — buildGroup keeps appending to s.ackers.
	wd.AddProbe(flight.Probe{Name: "unacked", Sample: func(now time.Time) (flight.Sample, bool) {
		s.ackMu.Lock()
		ackers := append([]ackProber(nil), s.ackers...)
		s.ackMu.Unlock()
		var best flight.Sample
		found := false
		for _, ap := range ackers {
			id, since, ok := ap.OldestUnacked()
			if !ok {
				continue
			}
			if age := now.Sub(since); !found || age > best.Age {
				best = flight.Sample{
					Detail: fmt.Sprintf("command %v submitted here, no client ack", id),
					Age:    age,
					Cmd:    id,
				}
				found = true
			}
		}
		return best, found
	}})
	if co := s.Coordinator; co != nil {
		wd.AddSection("rebalance", func() string { return strings.Join(co.DebugState(), "\n") })
	}
	s.Watchdog = wd
	cfg.Obs.Handle("/debugz", wd.Handler())
	cfg.Obs.CounterFunc("caesar_watchdog_scans_total",
		"Stall-watchdog scan passes run.", nil, wd.Scans)
	cfg.Obs.CounterFunc("caesar_watchdog_trips_total",
		"Stall-watchdog healthy-to-stalled transitions.", nil, wd.Trips)
	cfg.Obs.Gauge("caesar_watchdog_stalled",
		"1 while at least one stall probe is above threshold, 0 otherwise.", nil,
		func() float64 {
			if wd.Stalled() {
				return 1
			}
			return 0
		})
}

// registerContention installs one group's fast-path-loss decomposition
// as the caesar_contention_losses_total{group,cause} family: four
// scrape-time counters over the sketch's atomic loss cells. Called per
// group from buildGroup, so resize-created groups register on arrival.
func (s *Stack) registerContention(ob *obs.Registry, g int, cg *contend.Group) {
	if ob == nil {
		return
	}
	group := strconv.Itoa(g)
	for _, c := range []struct {
		cause string
		fn    func() int64
	}{
		{"nack", func() int64 { return cg.Losses().Nack }},
		{"blocked", func() int64 { return cg.Losses().Blocked }},
		{"retry", func() int64 { return cg.Losses().Retry }},
		{"recovery", func() int64 { return cg.Losses().Recovery }},
	} {
		ob.CounterFunc("caesar_contention_losses_total",
			"Fast-path losses at this node, decomposed by consensus group and cause.",
			obs.Labels{"group": group, "cause": c.cause}, c.fn)
	}
}

// hotKeyExportN caps how many sketch rows the caesar_hotkey_* families
// export per scrape: the head of the ranking is the useful signal, and a
// bounded series count keeps the scrape size independent of K.
const hotKeyExportN = 10

// registerHotKeys installs the contention profile's top keys as
// scrape-time vector gauges: each family re-ranks the sketch at scrape
// time and emits one {key}-labeled sample per hot key.
func (s *Stack) registerHotKeys(ob *obs.Registry) {
	type pick struct {
		name string
		help string
		fn   func(contend.KeyStats) float64
	}
	for _, p := range []pick{
		{"caesar_hotkey_events", "Attributed contention events for the node's hottest keys (space-saving weight; ranking order).",
			func(ks contend.KeyStats) float64 { return float64(ks.Events) }},
		{"caesar_hotkey_nacks", "Proposal rejections attributed to the node's hottest keys.",
			func(ks contend.KeyStats) float64 { return float64(ks.Nacks) }},
		{"caesar_hotkey_parks", "Read-fence parks attributed to the node's hottest keys.",
			func(ks contend.KeyStats) float64 { return float64(ks.Parks) }},
		{"caesar_hotkey_wait_seconds", "Total wait time (§IV-A blocks, read parks, cross-shard holds) attributed to the node's hottest keys.",
			func(ks contend.KeyStats) float64 { return ks.WaitTime.Seconds() }},
	} {
		fn := p.fn
		ob.GaugeVec(p.name, p.help, func() []obs.Sample {
			top := s.Contend.TopKeys(hotKeyExportN)
			out := make([]obs.Sample, 0, len(top))
			for _, ks := range top {
				out = append(out, obs.Sample{Labels: obs.Labels{"key": ks.Key}, Value: fn(ks)})
			}
			return out
		})
	}
}

// registerGauges installs the stack's scrape-time gauges: everything here
// is sampled from existing accessors only when /metrics or /statusz is
// hit, so the registry costs the running node nothing.
func (s *Stack) registerGauges(ob *obs.Registry) {
	if ob == nil {
		return
	}
	if co := s.Coordinator; co != nil {
		ob.Gauge("caesar_shards",
			"Consensus groups in the current routing epoch.", nil,
			func() float64 { return float64(co.Shards()) })
		ob.Gauge("caesar_routing_epoch",
			"Routing epoch currently installed at this node.", nil,
			func() float64 { return float64(co.Epoch()) })
		ob.Gauge("caesar_resizing",
			"1 while an epoch transition is in flight, 0 otherwise.", nil,
			func() float64 {
				if co.Resizing() {
					return 1
				}
				return 0
			})
	} else {
		shards := s.Shards
		ob.Gauge("caesar_shards",
			"Consensus groups in the current routing epoch.", nil,
			func() float64 { return float64(shards) })
	}
	t := s.Table
	ob.Gauge("caesar_xshard_held",
		"Cross-shard transactions currently held in the commit table.", nil,
		func() float64 { return float64(t.Pending()) })
	ob.Gauge("caesar_xshard_oldest_held_seconds",
		"Age of the oldest transaction still held in the commit table.", nil,
		func() float64 {
			_, since, _, ok := t.OldestHeld()
			if !ok {
				return 0
			}
			return s.now().Sub(since).Seconds()
		})
	if l := s.Log; l != nil {
		ob.Gauge("caesar_wal_segment_index",
			"Index of the write-ahead log's active segment file.", nil,
			func() float64 { return float64(l.Stats().SegmentIndex) })
		ob.Gauge("caesar_wal_segment_bytes",
			"Bytes written to the active write-ahead log segment.", nil,
			func() float64 { return float64(l.Stats().SegmentBytes) })
		ob.Gauge("caesar_wal_bytes_since_snapshot",
			"Log bytes accumulated since the last snapshot cut.", nil,
			func() float64 { return float64(l.Stats().SinceSnapshot) })
		ob.Gauge("caesar_wal_pending_records",
			"Records appended to the write-ahead log and not yet synced, applied and acknowledged.", nil,
			func() float64 { return float64(l.Stats().Pending) })
		ob.Gauge("caesar_wal_oldest_pending_seconds",
			"Age of the oldest record still waiting for its sync and completion (a stalled disk grows this while the event loops keep deciding).", nil,
			func() float64 { return l.Stats().OldestPending.Seconds() })
	}
	ob.Gauge("caesar_store_keys",
		"Keys currently resident in the node's store.", nil,
		func() float64 { return float64(s.Store.Len()) })
	ob.Gauge("caesar_store_retained_versions",
		"Replaced versions the store holds: kept by writes applied while a local read was in flight, let go by a key's first write with none.", nil,
		func() float64 { return float64(s.Store.RetainedVersions()) })
	ob.Gauge("caesar_audit_groups",
		"Consensus groups with applied-state digest folds.", nil,
		func() float64 { return float64(s.Store.AuditGroups()) })
	ob.CounterFunc("caesar_audit_writes_total",
		"Writes folded into the applied-state audit digests.", nil,
		func() int64 { return int64(s.Store.AuditWrites()) })
	ob.CounterFunc("caesar_audit_divergence_total",
		"Cross-replica applied-state divergences proven against this node.", nil,
		func() int64 { return int64(s.divergences.Load()) })
}

// AuditReport assembles the node's /auditz answer: every group's digest
// quote plus the routing context the cross-node auditor aligns on.
func (s *Stack) AuditReport() audit.Report {
	rep := audit.Report{
		Node:    s.self,
		Applied: s.Store.Applied(),
		State:   s.Store.AuditState(),
	}
	if co := s.Coordinator; co != nil {
		rep.Epoch = co.Epoch()
		rep.Resizing = co.Resizing()
	}
	return rep
}

// NoteDivergence is the node-side divergence sink: the auditor (in
// process or cmd/caesar-audit feeding caesar-server's collector) calls
// it on each node a proven divergence involves. It journals a flight
// event, bumps caesar_audit_divergence_total, and invokes
// Config.OnDivergence.
func (s *Stack) NoteDivergence(d audit.Divergence) {
	s.divergences.Add(1)
	s.Flight.Record(flight.KindAudit, d.Group, command.ID{}, "%s", d.String())
	if s.onDivergence != nil {
		s.onDivergence(d)
	}
}

// AuditDivergences returns how many divergences were noted at this node.
func (s *Stack) AuditDivergences() uint64 { return s.divergences.Load() }

// The maintenance loop ticks every tickEvery; a tick asks the log whether
// it has grown enough to snapshot every snapshotEvery.
const (
	tickEvery     = 250 * time.Millisecond
	snapshotEvery = time.Second
)

// Start launches the engine stack, the rebalance coordinator and the
// maintenance loop — except on a node built with Config.Now, whose clock's
// owner must call Tick or the node runs no timer at all. Idempotent; a
// stopped stack does not start again.
func (s *Stack) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started || s.stopped {
		return
	}
	s.started = true
	s.Engine.Start()
	if s.Coordinator != nil {
		s.Coordinator.Start()
	}
	if s.Recovered != nil {
		s.Flight.Eventf(flight.KindNode, "node started: %d group(s), state recovered from data dir", s.Shards)
	} else {
		s.Flight.Eventf(flight.KindNode, "node started: %d group(s)", s.Shards)
	}
	if s.quit != nil {
		go s.loop()
	}
}

// loop is the node's one maintenance goroutine. It scans itself and runs
// the rest of a pass, which can wait on a group loop or the disk, on a
// worker that lives while the pass runs (a tick finding one busy skips
// it), so nothing the watchdog exists to report can stop its scans.
func (s *Stack) loop() {
	defer close(s.done)
	//caesarlint:allow wallclock -- maintenance cadence only; every deadline a tick acts on compares instants of the stack's clock
	tick := time.NewTicker(tickEvery)
	defer tick.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-tick.C:
			s.scan()
			if s.busy.CompareAndSwap(false, true) {
				s.work.Add(1)
				go func() {
					defer s.work.Done()
					s.maintain()
					s.busy.Store(false)
				}()
			}
		}
	}
}

// Tick runs one maintenance pass on the stack's clock: a watchdog scan
// once WatchdogInterval has passed since the last, the coordinator's sweep
// and the commit table's resolution, and a snapshot check once a second
// has passed (the first Tick runs all four). It waits on whatever the
// sweep, the resolution or the snapshot waits on. On a node with an
// injected clock only the clock's owner calls it.
func (s *Stack) Tick() {
	s.scan()
	s.maintain()
}

// scan runs a watchdog scan if one is due; a scan only samples.
func (s *Stack) scan() {
	s.mu.Lock()
	ok := due(&s.nextScan, s.now(), s.scanEvery)
	s.mu.Unlock()
	if ok {
		s.Watchdog.Scan()
	}
}

// maintain is the part of a pass that can block.
func (s *Stack) maintain() {
	if s.Coordinator != nil {
		s.Coordinator.Sweep()
	}
	s.Table.Resolve()
	if s.Log == nil {
		return
	}
	s.mu.Lock()
	ok := due(&s.nextSnap, s.now(), snapshotEvery)
	s.mu.Unlock()
	if ok {
		_ = s.Log.MaybeSnapshot(s.export)
	}
}

// due reports whether *next has come round at now and, if so, moves it
// one period on from when it was due (ticker jitter does not stretch the
// period), or from now if the clock ran more than a period past it.
func due(next *time.Time, now time.Time, every time.Duration) bool {
	if now.Before(*next) {
		return false
	}
	*next = next.Add(every)
	if !next.After(now) {
		*next = now.Add(every)
	}
	return true
}

func (s *Stack) export() (map[string][]byte, int64) {
	return s.Store.Export(nil), s.Store.Applied()
}

// Snapshot forces a snapshot now (tests, graceful shutdown).
func (s *Stack) Snapshot() error {
	if s.Log == nil {
		return nil
	}
	return s.Log.Snapshot(s.export)
}

// Stop shuts the node down: the maintenance loop, then the engines (the
// groups — no loop delivers, appends, anything more — then the commit
// table), then the maintenance pass still running, if any (a stopped
// group fails what a sweep or a resolution submits to it), the rebalance
// coordinator (failing the deliveries it still gated), then the log,
// whose Close syncs, applies and acknowledges every record the loops had
// appended before it returns. The store a stopped node leaves is
// therefore exactly what its data dir replays to;
// completions that run after their engine stopped find its loop closed
// and drop their GC ack, which a restart re-sends. Idempotent, and a
// stack that was never started stops as well.
func (s *Stack) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	loop := s.started && s.quit != nil
	s.mu.Unlock()
	s.Flight.Eventf(flight.KindNode, "node stopping")
	if loop {
		close(s.quit)
		<-s.done
	}
	s.Engine.Stop()
	s.work.Wait()
	if s.Coordinator != nil {
		s.Coordinator.Stop()
	}
	if s.Log != nil {
		_ = s.Log.Close()
	}
}
