package caesar

import (
	"sync"
	"time"

	"github.com/caesar-consensus/caesar/internal/chunk"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/contend"
	"github.com/caesar-consensus/caesar/internal/failure"
	"github.com/caesar-consensus/caesar/internal/flight"
	"github.com/caesar-consensus/caesar/internal/idset"
	"github.com/caesar-consensus/caesar/internal/metrics"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/quorum"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/trace"
	"github.com/caesar-consensus/caesar/internal/transport"
)

// Config tunes a Replica. The zero value of every field selects a sensible
// default.
type Config struct {
	// FastTimeout is how long a command leader waits for a fast quorum
	// before settling for a classic quorum and the slow proposal phase
	// (§V-D). Default 400ms.
	FastTimeout time.Duration
	// HeartbeatInterval is how often a replica heartbeats its peers.
	// Default 100ms. Negative disables heartbeats, failure detection and
	// recovery.
	HeartbeatInterval time.Duration
	// SuspectTimeout is the failure detector's silence threshold.
	// Default 10× HeartbeatInterval.
	SuspectTimeout time.Duration
	// RecoveryBackoff staggers takeover attempts between the surviving
	// nodes so a single recoverer usually wins. Default 150ms.
	RecoveryBackoff time.Duration
	// GCInterval batches delivery acknowledgements for garbage
	// collection. Default 100ms. Negative disables GC.
	GCInterval time.Duration
	// TickInterval is the event-loop timer granularity. Default 20ms.
	TickInterval time.Duration
	// Now is the clock every timeout and deadline is computed from.
	// Default time.Now. Tests inject a fake clock and drive ticks
	// manually, making the replica's timers fire deterministically under
	// simulated time; the runtime reads it once per event and hands the
	// instant to Step, so all decisions within one event observe one
	// instant.
	Now func() time.Time
	// DisableWait turns off the §IV-A wait condition (commands that
	// would wait are rejected instead). Used only by the ablation study;
	// the protocol remains safe but takes more slow decisions.
	DisableWait bool
	// Predelivered seeds the replica's delivered-command set with the
	// IDs a crashed predecessor already applied (recovered from the
	// durable log): re-sent decisions for them are acknowledged — so
	// their leaders can garbage-collect — but not re-executed, keeping
	// application exactly-once across the restart. The replica takes
	// ownership of the set.
	Predelivered *idset.Set
	// SeqFloor is the highest local sequence number a predecessor may
	// have used (its durable reservation watermark): fresh command IDs
	// start strictly above it, so a restarted replica never reuses the
	// ID of a pre-crash command.
	SeqFloor uint64
	// ReserveSeq, when non-nil, durably records a new sequence
	// reservation before the replica assigns IDs beyond the previous
	// one; reservations are taken in blocks of seqReserveBlock, so the
	// (synchronous, fsynced) call is rare. Invoked from the event loop.
	ReserveSeq func(upto uint64)
	// ClockSeed advances the initial logical clock past this sequence —
	// the maximum of the timestamps a predecessor applied at and its
	// durable clock reservation, so a restarted replica never issues a
	// timestamp at or below one its predecessor issued. That bound is
	// load-bearing: a fresh proposal below an orphaned pre-crash command
	// would invert the wait condition's timestamp order and can deadlock
	// delivery.
	ClockSeed uint64
	// ReserveClock, when non-nil, durably records a clock-issue
	// watermark before timestamps beyond the previous one are issued
	// (timestamp.Clock.SetReserve); ClockSeed must come from the same
	// durable source.
	ReserveClock func(upto uint64)
	// RetransmitAfter is how long a command leader waits for a missing
	// delivery acknowledgement before re-sending the Stable decision to
	// the replicas that still owe one — the catch-up path that lets a
	// restarted (or long-partitioned) replica relearn decisions it
	// missed while down. Default 1s; negative disables.
	RetransmitAfter time.Duration
	// Metrics receives measurements; nil allocates a private recorder.
	Metrics *metrics.Recorder
	// Contend, when non-nil, receives this replica's contention
	// attribution (internal/contend): which key each nack, wait-condition
	// block, retry and recovery is charged to. A nil sketch records
	// nothing.
	Contend *contend.Group
	// Trace, when non-nil, records protocol milestones (propose, waits,
	// retries, stability, delivery, recovery) for debugging.
	Trace *trace.Ring
	// SlowThreshold, when > 0, dumps the traced history of any locally
	// submitted command whose submit→ack latency exceeds it through
	// SlowLog — the slow-command log. Most useful with Trace set; without
	// a ring the dump is just the headline.
	SlowThreshold time.Duration
	// SlowLog receives slow-command reports (log.Printf-compatible); nil
	// uses the standard library logger.
	SlowLog func(format string, args ...any)
	// Flight, when non-nil, journals this replica's node-level milestones
	// — peer suspicions, recovery prepares, stuck-command takeovers,
	// Stable retransmissions — into the node's flight recorder
	// (internal/flight). These are the rare events the per-command trace
	// ring does not keep across wraps.
	Flight *flight.Recorder
	// FlightGroup labels flight events with this replica's consensus
	// group index on a sharded node; leave zero for single-group
	// deployments.
	FlightGroup int32
}

func (c Config) withDefaults() Config {
	if c.FastTimeout == 0 {
		c.FastTimeout = 400 * time.Millisecond
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 100 * time.Millisecond
	}
	if c.SuspectTimeout == 0 {
		c.SuspectTimeout = 10 * c.HeartbeatInterval
	}
	if c.RecoveryBackoff == 0 {
		c.RecoveryBackoff = 150 * time.Millisecond
	}
	if c.GCInterval == 0 {
		c.GCInterval = 100 * time.Millisecond
	}
	if c.TickInterval == 0 {
		c.TickInterval = 20 * time.Millisecond
	}
	if c.RetransmitAfter == 0 {
		c.RetransmitAfter = time.Second
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRecorder()
	}
	return c
}

// Replica is one CAESAR node: it accepts client submissions as a command
// leader and participates as an acceptor for every peer's commands. All
// protocol state is owned by a single event-loop goroutine: the embedded
// runtime's, which is also where Start, Stop and Submit come from.
type Replica struct {
	*protocol.Runtime
	self  timestamp.NodeID
	peers []timestamp.NodeID
	n     int
	cq    int // classic quorum size
	fq    int // fast quorum size

	cfg Config
	// app is the applier chain decided commands are delivered into, and
	// appAt its synchronous facet, probed once in New — the only applier
	// probe outside tests. Non-nil appAt (a chain that ends in a
	// synchronous layer, protocol.Sync) is applied on the event loop;
	// otherwise every delivery goes through app.ApplyDeferred.
	app   protocol.Applier
	appAt protocol.TimestampedApplier

	met   *metrics.Recorder
	ctd   *contend.Group
	clock *timestamp.Clock

	// hist holds one record per command — the paper's tuple, the promised
	// ballot and everything this replica tracks beside them (see record).
	hist      *history
	delivered *idset.Set
	// waiters holds proposals deferred by the §IV-A wait condition.
	waiters []*waiter
	// ackPending accumulates delivered IDs to acknowledge, per leader
	// (indexed by node ID).
	ackPending [][]command.ID
	// unacked tracks locally submitted commands whose client callback
	// has not fired yet, with their submit instants. Deliberately NOT
	// event-loop state: the stall watchdog reads it through
	// OldestUnacked from its own goroutine, so a wedged event loop
	// cannot hide its oldest victim. Guarded by unackedMu.
	unackedMu sync.Mutex
	unacked   map[command.ID]time.Time
	// purgePending accumulates fully acknowledged IDs to purge.
	purgePending []command.ID
	// lows and seens are the purge horizon reports, by node ID: the Low
	// and the Seen each replica last heartbeated, this one's refreshed at
	// every tick that reads them (gc.go). Zero until a replica is heard
	// from.
	lows, seens []timestamp.Timestamp

	// proposes, replies and stables are where the FastPropose,
	// FastProposeReply and Stable this replica sends come from
	// (messages.go); event-loop state, so they need no lock.
	proposes chunk.Of[FastPropose]
	replies  chunk.Of[FastProposeReply]
	stables  chunk.Of[Stable]
	// coords is where every coordinator this replica leads a command with
	// comes from, a submitted one or a recovered one; a coordinator lives
	// as long as its record, and a replaced one is never reused.
	coords chunk.Of[coordinator]
	// deliveries is where every command handed to a deferred chain takes
	// its completion from (delivery.go).
	deliveries chunk.Of[delivery]
	// fences is where every read fence posted to the loop comes from
	// (readfence.go). ReadFence runs on the reader's goroutine, so
	// fencesMu guards it.
	fencesMu sync.Mutex
	fences   chunk.Of[evReadFence]

	fd      *failure.Detector
	nextSeq uint64
	// seqReserved is the durable sequence reservation watermark: IDs up
	// to it may be assigned without another Config.ReserveSeq call.
	seqReserved uint64
	// now is the instant of the step being handled: all protocol code
	// sees one consistent instant per event and never reads a clock.
	now       time.Time
	lastHB    time.Time
	lastGC    time.Time
	lastRetx  time.Time
	lastStuck time.Time
}

// evAck queues a GC acknowledgement for a command whose deferred apply
// completed outside the event loop (see deliverNow).
type evAck struct{ rec *record }

// New builds a replica attached to the endpoint. app receives decided
// commands in order. It panics on more than quorum.MaxNodes peers: votes
// and acks are sets of node IDs 0..N-1 kept as one bit each.
func New(ep transport.Endpoint, app protocol.Applier, cfg Config) *Replica {
	cfg = cfg.withDefaults()
	peers := ep.Peers()
	n := len(peers)
	if n > quorum.MaxNodes {
		panic("caesar: more than quorum.MaxNodes peers")
	}
	delivered := cfg.Predelivered
	if delivered == nil {
		delivered = idset.New()
	}
	r := &Replica{
		self:        ep.Self(),
		peers:       peers,
		n:           n,
		cq:          quorum.ClassicSize(n),
		fq:          quorum.FastSize(n),
		cfg:         cfg,
		app:         app,
		met:         cfg.Metrics,
		ctd:         cfg.Contend,
		clock:       timestamp.NewClock(ep.Self()),
		hist:        newHistory(),
		delivered:   delivered,
		ackPending:  make([][]command.ID, n),
		lows:        make([]timestamp.Timestamp, n),
		seens:       make([]timestamp.Timestamp, n),
		unacked:     make(map[command.ID]time.Time),
		nextSeq:     cfg.SeqFloor,
		seqReserved: cfg.SeqFloor,
	}
	if cfg.ClockSeed > 0 {
		r.clock.Observe(timestamp.Timestamp{Seq: cfg.ClockSeed})
	}
	if cfg.ReserveClock != nil {
		r.clock.SetReserve(cfg.ClockSeed, cfg.ReserveClock)
	}
	r.appAt, _ = app.(protocol.TimestampedApplier)
	r.Runtime = protocol.NewRuntime(ep, cfg.Now, cfg.TickInterval, r.step, r.failInFlight)
	r.now = r.Now()
	if cfg.HeartbeatInterval > 0 {
		r.fd = failure.New(r.self, peers, cfg.SuspectTimeout, r.now)
	}
	return r
}

var _ protocol.Engine = (*Replica)(nil)

// Metrics returns the replica's recorder.
func (r *Replica) Metrics() *metrics.Recorder { return r.met }

// failInFlight is the runtime's drained hook: the loop has exited, no
// concurrent access remains. Undelivered submissions and parked read
// fences fail with ErrStopped.
func (r *Replica) failInFlight() {
	for rec := r.hist.first; rec != nil; rec = rec.next {
		if c := rec.coord; c != nil && c.done != nil {
			c.done(protocol.Result{Err: protocol.ErrStopped})
		}
		for _, w := range rec.reads {
			if w.remaining > 0 { // a fence parks on several records: fail it once
				w.remaining = 0
				w.done.Complete(protocol.Result{Err: protocol.ErrStopped})
			}
		}
	}
	r.unackedMu.Lock()
	r.unacked = make(map[command.ID]time.Time)
	r.unackedMu.Unlock()
}

// OldestUnacked reports the locally submitted command whose client
// callback has been outstanding the longest, and since when. It reads a
// side table guarded by its own mutex — not event-loop state — so the
// stall watchdog can observe a replica whose loop is wedged.
func (r *Replica) OldestUnacked() (command.ID, time.Time, bool) {
	r.unackedMu.Lock()
	defer r.unackedMu.Unlock()
	var oldest command.ID
	var at time.Time
	//caesarlint:allow maprange -- takes the minimum, for the watchdog's report; no message, apply or trace event follows from it
	for id, t := range r.unacked {
		if at.IsZero() || t.Before(at) {
			oldest, at = id, t
		}
	}
	return oldest, at, !at.IsZero()
}

// step is the single event dispatcher: the runtime's Step calls it for
// every event, self-addressed messages included, with the instant the
// event is handled at. Every timeout, deadline and measurement below reads
// r.now, never a clock. A *protocol.Submission makes this replica the
// command's leader (§V-B); its Done fires after local execution.
func (r *Replica) step(now time.Time, ev protocol.Event) {
	r.now = now
	if ev.Remote {
		if r.fd != nil {
			r.fd.Observe(ev.From, now)
		}
		r.dispatch(ev.From, ev.Payload)
		return
	}
	switch e := ev.Payload.(type) {
	case protocol.Tick:
		r.onTick(now)
	case *protocol.Submission:
		r.onSubmit(e.Cmd, e.Done)
	case evAck:
		r.onAck(e.rec)
	case *evReadFence:
		r.onReadFence(e)
	}
}

// dispatch routes one protocol message.
func (r *Replica) dispatch(from timestamp.NodeID, payload any) {
	switch m := payload.(type) {
	case *FastPropose:
		r.onFastPropose(from, m)
	case *FastProposeReply:
		r.onFastProposeReply(from, m)
	case *SlowPropose:
		r.onSlowPropose(from, m)
	case *SlowProposeReply:
		r.onSlowProposeReply(from, m)
	case *Retry:
		r.onRetry(from, m)
	case *RetryReply:
		r.onRetryReply(from, m)
	case *Stable:
		r.onStable(from, m)
	case *Recover:
		r.onRecover(from, m)
	case *RecoverReply:
		r.onRecoverReply(from, m)
	case *StableAckBatch:
		r.onStableAckBatch(from, m)
	case *PurgeBatch:
		r.onPurgeBatch(from, m)
	case *Heartbeat:
		r.onHeartbeat(from, m)
	}
}

// seqReserveBlock is how many sequence numbers one durable reservation
// covers: one Config.ReserveSeq fsync per block of submissions.
const seqReserveBlock = 4096

// onSubmit starts the fast proposal phase for a fresh command (lines
// I1–I2 of Fig 4).
func (r *Replica) onSubmit(cmd command.Command, done protocol.DoneFunc) {
	r.nextSeq++
	if r.cfg.ReserveSeq != nil && r.nextSeq > r.seqReserved {
		// The reservation is durable before any ID above the previous
		// watermark is used, so a crash-restarted replica (which resumes
		// from the highest persisted watermark) can never mint an ID
		// twice.
		r.seqReserved = r.nextSeq + seqReserveBlock
		r.cfg.ReserveSeq(r.seqReserved)
	}
	cmd.ID = command.ID{Node: r.self, Seq: r.nextSeq}
	r.met.Proposals.Inc()
	if done != nil {
		r.unackedMu.Lock()
		r.unacked[cmd.ID] = r.now
		r.unackedMu.Unlock()
	}
	c := r.coords.Next()
	c.cmd, c.proposedAt, c.done = cmd, r.now, done
	r.hist.ensure(cmd).coord = c
	ts := r.clock.Next()
	r.cfg.Trace.Record(r.self, trace.KindPropose, cmd.ID, ts)
	r.startFastProposal(c, ts, nil, false)
}

// onTick drives timers: leader fast-quorum timeouts, heartbeats, failure
// detection, recovery deadlines and GC flushing. Everything it walks has a
// defined order — undelivered records in creation order, peers in node
// order — so two replicas fed the same events send the same messages in
// the same order.
func (r *Replica) onTick(now time.Time) {
	open := r.hist.unfinished()
	// Fast-quorum timeouts (§V-D).
	for _, rec := range open {
		if c := rec.coord; c != nil && c.phase == phaseFastProposal && !c.timedOut && now.After(c.deadline) {
			c.timedOut = true
			r.evaluateFastProposal(c)
		}
	}
	// Heartbeats and failure detection.
	if r.fd != nil {
		if now.Sub(r.lastHB) >= r.cfg.HeartbeatInterval {
			r.lastHB = now
			r.Broadcast(r.heartbeat())
		}
		for _, suspect := range r.fd.Tick(now) {
			r.onSuspect(suspect, now, open)
		}
		r.checkRecoveryDeadlines(now, open)
	}
	// Garbage collection, and the purge fence's floor follows the horizon
	// (gc.go).
	if r.cfg.GCInterval > 0 && now.Sub(r.lastGC) >= r.cfg.GCInterval {
		r.lastGC = now
		r.flushGC()
		r.met.PurgeFenceKeys.Store(int64(r.hist.raiseFloor(r.reportHorizon())))
	}
	// Stable retransmission for replicas that have not acknowledged.
	if r.cfg.RetransmitAfter > 0 && now.Sub(r.lastRetx) >= r.cfg.RetransmitAfter/2 {
		r.lastRetx = now
		r.retransmitStables(now)
	}
	// Stuck-command recovery runs on its own cadence: it must keep
	// working even with retransmission disabled.
	if r.fd != nil && now.Sub(r.lastStuck) >= r.cfg.stuckTimeout()/4 {
		r.lastStuck = now
		r.recoverStuck(now, open)
	}
}

// orphaned reports whether rec is a command this replica cannot expect to
// finish by itself: short of stable, and either known (it holds a tuple)
// or needed (a stable record is parked on it, though no message ever
// brought its payload). A name nothing waits on — all that a Recover for
// an unknown command leaves behind — is nobody's to recover.
func orphaned(rec *record) bool {
	return rec.status != StatusStable && !rec.delivered &&
		(rec.status != StatusNone || len(rec.parked) > 0)
}

// scheduleRecovery arms rec's takeover for at, unless one is armed or in
// flight already.
func scheduleRecovery(rec *record, at time.Time) bool {
	if rec.recovery != nil || !rec.recoverAt.IsZero() {
		return false
	}
	rec.recoverAt = at
	return true
}

// recoverStuck schedules recovery for commands that have sat unfinished a
// full stuck timeout even though their leader looks alive. Three classes
// the failure detector cannot see:
//
//   - a foreign pre-stable record whose leader is a restarted incarnation
//     that lost it (heartbeats happily, will never finish it);
//   - one of this node's own pre-stable records whose proposer round has
//     wedged — e.g. parked in a peer's §IV-A wait behind a command that
//     is itself stuck — where "the local proposer will drive it" no
//     longer holds and a ballot-protected recovery restart is the only
//     way forward;
//   - a predecessor this replica has never received, with a stable record
//     parked on it: onSuspect recovers those when the pred's leader goes
//     silent, but a wedged-yet-alive leader never trips suspicion.
//
// The scan is two-phase — mark first, recover if still stuck a timeout
// later — so fresh records and freshly parked predecessors never trip it,
// and recovery is ballot-protected, so firing on a merely-slow command is
// safe.
func (r *Replica) recoverStuck(now time.Time, open []*record) {
	for _, rec := range open {
		if !orphaned(rec) {
			continue
		}
		if rec.stuckSince.IsZero() {
			rec.stuckSince = now
			continue
		}
		if now.Sub(rec.stuckSince) < r.cfg.stuckTimeout() {
			continue
		}
		rec.stuckSince = now // throttle rescheduling
		// Rank like onSuspect (dense among survivors) so some replica
		// always recovers with zero delay even when low-ID nodes are the
		// crashed ones. recoverStuck only runs with the detector on.
		if scheduleRecovery(rec, now.Add(time.Duration(r.fd.Rank())*r.cfg.RecoveryBackoff)) {
			r.cfg.Flight.Record(flight.KindStuck, r.cfg.FlightGroup, rec.id(),
				"unfinished past %v with a live leader; ballot-protected takeover scheduled", r.cfg.stuckTimeout())
		}
	}
}
