// Package caesar is a Go implementation of CAESAR, the multi-leader
// Generalized Consensus protocol of "Speeding up Consensus by Chasing Fast
// Decisions" (Arun, Peluso, Palmieri, Losa, Ravindran — DSN 2017,
// arXiv:1704.03319).
//
// CAESAR replicates a deterministic state machine across a set of nodes
// that may all act as command leaders. Commands carry logical timestamps;
// a fast quorum of ⌈3N/4⌉ acceptors confirms a timestamp in two
// communication delays — even when the acceptors disagree on the command's
// predecessor set, the case that forces competitors such as EPaxos onto
// their slow path. Rejected timestamps retry through a classic quorum of
// ⌊N/2⌋+1 in four delays. Conflicting commands (same key) are executed in
// timestamp order on every node; commuting commands are never ordered.
//
// # Quickstart
//
//	cluster, _ := caesar.NewLocalCluster(5, caesar.WithGeoLatency(0.1))
//	defer cluster.Close()
//
//	node := cluster.Node(0)
//	res, _ := node.Propose(ctx, caesar.Put("accounts/alice", []byte("100")))
//	val, _ := node.Propose(ctx, caesar.Get("accounts/alice"))
//
// Every node accepts proposals; co-locate clients with their nearest node
// as the paper's geo-replicated deployment does. See the examples/
// directory for runnable scenarios and internal/harness for the full
// reproduction of the paper's evaluation (Figures 6–12).
//
// # Sharding
//
// A single CAESAR group totally orders all conflicting commands, so its
// serial delivery pipeline caps aggregate throughput no matter how high
// the fast-decision rate is. WithShards(g) partitions a deployment into g
// independent consensus groups per node:
//
//	cluster, _ := caesar.NewLocalCluster(3, caesar.WithShards(4))
//
// Every command is routed to a group by consistent hashing of its key
// (ShardOf); the hash is stable under growth, moving only ~1/(g+1) of the
// keyspace when a shard is added. Commands on the same key always land on
// the same shard, so conflicting commands keep exactly the single-group
// ordering guarantees, while commands on different shards are proposed,
// stabilized and executed fully in parallel. A cluster built without
// WithShards is the same node at g = 1 — the same commit table, router and
// resize machinery — and group 0's messages carry no shard envelope, so a
// one-group node's wire is the plain protocol's. See internal/shard and
// examples/sharding.
//
// # Cross-shard transactions
//
// Multi-key transactions (ProposeTx) whose keys span groups commit
// atomically through the cross-shard commit layer (internal/xshard): the
// transaction is proposed as one participant piece per touched group, each
// totally ordered by its group's consensus, held in a per-node commit
// table until every group has stabilized its piece, and then applied as
// one indivisible unit at the merged (max) of the per-group stable
// timestamps. A transaction whose coordinator crashes mid-commit is
// finished or aborted by the survivors — it executes on every replica or
// on none (ErrTxAborted), never partially. Guaranteed: per-transaction
// atomicity and exactly-once application at the merged timestamp. Not
// guaranteed: cross-shard strict serializability — while a transaction is
// in flight, other commands on its keys (cross-shard or single-key) may
// be observed before it on one replica and after it on another; keys
// never touched by a cross-shard transaction keep the full single-group
// ordering guarantees. See internal/xshard and examples/bank for an
// atomic transfer workload over four groups.
//
// # Live rebalancing
//
// Any deployment can change its group count without downtime, one that
// started at one group included:
//
//	err := node.Resize(ctx, 8) // any node of any cluster
//
// Routing is epoch-versioned — each epoch names one shard count — and a
// resize installs the next epoch behind a consensus-ordered marker: a
// fence command that conflicts with every command of its group, so all
// replicas switch epochs at the exact same point of each group's delivery
// order (the same consensus-ordered-marker trick the paper's recovery
// machinery uses to make state transitions deterministic). Group 0's
// total order of markers serializes concurrent resizes. For each key
// range changing homes, the cross-shard transactions the source group
// ordered pre-fence are drained, and state-machine commands reaching a
// key's new home early are queued — per-key FIFO, without stalling
// unrelated traffic — until that handoff completes. (The store is
// node-shared, so no key bytes move: the handoff is purely the ordering
// protocol; cross-shard participant pieces bypass the handoff gate —
// registering one touches only the commit table — which is what keeps
// the handoff's wait graph acyclic.)
//
// Preserved through a resize: exactly-once application of every
// acknowledged command, the per-key total order (old home's order up to
// the fence, then the new home's order, cut identically on every
// replica), and cross-shard atomicity — a ProposeTx straddling the marker
// commits under one epoch everywhere or aborts everywhere and is
// re-proposed under the new routing automatically. Commands routed under
// the old epoch but ordered after their group's fence are skipped
// deterministically and re-proposed by their submitting node; traffic on
// migrating keys stalls at most one handoff round. See internal/rebalance
// for the protocol, rebalance_test.go for the resize-under-load
// conformance run, and examples/sharding for a mid-stream resize.
//
// # Read model
//
// Reads are served off the consensus path (internal/reads):
//
//	val, _ := node.Read(ctx, "accounts/alice")            // one key
//	vals, _ := node.ReadTx(ctx, []string{"a", "b", "c"})  // one snapshot
//
// A read goes register → stamp → fence → snapshot: it registers with the
// local store, is stamped from its key's consensus-group logical clock,
// fenced at the group's delivery frontier, and answered from the store the
// moment every conflicting command below the stamp has been applied here —
// the paper's §IV-A wait condition, applied to reads: no proposal, no
// quorum round-trip, no log record. While a read is registered the store
// keeps the versions that writes replace (a handful per key), so it answers
// "as of" the stamp even when later writes land during the wait; with no
// read in flight it keeps one version per key and nothing else. A read that
// begins after a write was applied here sees that write or a later one.
// ReadTx fans the frontier wait across every touched group, merges to the
// max per-group stamp, waits until no held cross-shard transaction on its
// keys could still execute below it, and cuts one snapshot under a single
// store lock. A read's working memory — its key lists, its fence channel,
// Read's result — is a pooled state the fences complete into and the store
// snapshots into, so a read that nothing blocks allocates nothing inside
// the engine (ReadTx allocates the two slices it returns); a state goes
// back to the pool only once every fence it registered has completed.
//
// Guaranteed: a read observes a real point of its key's conflict order —
// never a torn write, never a reordering; a ReadTx snapshot is one
// consistent cut in which a ProposeTx's writes appear for all of its keys
// or for none; reads through one node are monotone per key (a later read
// never sees an older state); a client that writes and reads through the
// same node reads its own writes; and a read observes every command whose
// acknowledgement the serving replica has learned — single-key reads are
// linearizable with respect to everything the replica has heard of.
// During a resize, reads racing the epoch switch retry internally under
// one consistent epoch, and reads of migrating keys stall at most one
// handoff round; after a restart every key holds its one recovered
// version, which reads serve directly. Not guaranteed: strict
// cross-node real-time ordering against a command the serving replica has
// not yet received any message for — a write acknowledged elsewhere whose
// first message is still in flight here serializes after the read
// (closing that window requires leases or quorum reads; proposing a Get
// buys it today). See internal/reads for the mechanism and the
// lan3-mixed4g workload of bench/ (reads.read_p50_ms,
// reads.parks_per_kread) for what a local read costs under load.
//
// # Durability and crash restart
//
// A node given a data directory survives crashes:
//
//	cluster, _ := caesar.NewLocalCluster(3, caesar.WithDataDir(dir))
//	...
//	cluster.Crash(1)           // kill it
//	err := cluster.Restart(1)  // rebuild it from dir/node1 and rejoin
//
// (`caesar-server -data-dir` for a multi-process replica.) Every applied command, executed cross-shard
// transaction, installed routing epoch and ID/clock reservation is
// written to a segmented, CRC-checksummed write-ahead log
// (internal/wal) and fsynced — group commit: many decisions, one sync —
// before it is applied and its client is acknowledged. The consensus
// loops never wait for the disk: a delivery hands the log its record and
// the loop moves on; after the sync that covers the record the log
// applies and acknowledges it on its one completion goroutine, in log
// order — so a slow disk grows a queue
// (caesar_wal_pending_records) instead of stopping decisions, and a
// command the log refuses (closed, failed disk) fails at its client
// instead of being acknowledged. Periodic snapshots truncate the log. A
// restarted node replays snapshot + log tail to rebuild its
// store, its delivered-command sets, its commit-table state and its
// routing epoch, then rejoins: decisions it missed while down are
// re-sent by their leaders (and, for commands its own previous
// incarnation led, by the surviving replicas), and commands it already
// applied are acknowledged without re-executing — application stays
// exactly once across the crash.
//
// Persisted: everything the node has applied and acknowledged, plus the
// sequence/timestamp floors that keep a new incarnation from colliding
// with its predecessor's identifiers. Not persisted: in-flight protocol
// state (ballots, pending proposals, un-applied decisions) — commands
// in flight at the crash are finished or noop'd by the survivors'
// recovery machinery, exactly as for a permanent failure, and a client
// of the crashed node sees an unknown outcome for them. The crash model
// is fail-stop with stable storage: a node may lose everything after
// its last fsync and recover; Byzantine disks (silent corruption past
// the CRC) and fsync lies are outside it. See internal/wal,
// internal/stack for how the layers compose, the lan3-durable workload
// of bench/ against lan3-mem for the throughput cost (sat_ops_per_s) and
// recovery time (wal.replay_ms_per_kcmd), and restart_test.go for the
// crash-restart conformance run.
//
// # Apply chain
//
// The paper's DELIVER hands the state machine a command and its agreed
// timestamp, nothing else, and the node stack (internal/stack) keeps
// that shape through every layer with statically typed roles
// (internal/protocol), each with one entry point. The per-group chain,
// protocol.Applier, is what one group's engine delivers into: rebalance
// gate → write-ahead log → cross-shard commit table → state machine.
// The gate and the log each take a chain and return one with the single
// method ApplyDeferred, which may finish a command after its delivery
// point — the gate parks commands behind a handoff, the log completes
// every command after its sync — and never parks the event loop. It
// reports the result through a protocol.Completion, exactly once, from
// any goroutine (on the loop itself when the gate passes a command to a
// synchronous chain): CAESAR hands it a slot of the replica's delivery
// chunk, not a closure, so a delivered command reaches the store without
// a heap object of its own — the store takes a new key's entry from its
// own chunk too. The
// commit table's interception, the batch unpacker and the store are
// synchronous layers (protocol.TimestampedApplier, ApplyAt); the store
// behind the unpacker is the node state machine
// (protocol.TimestampedAtomicApplier), which also executes atomic
// multi-key units. A layer that dropped the timestamp (and with it the
// MVCC version stamp local reads depend on) would not compile. Where a
// chain ends in a synchronous layer — an in-memory node, below its gate —
// the stack wraps it in protocol.Sync. CAESAR has one delivery path: it
// hands every command to ApplyDeferred and finishes the delivery when the
// completion posts back to its loop, however soon that is.
//
// # Transports
//
// An engine sees its peers through a transport.Endpoint and runs on one
// goroutine, its protocol.Runtime's loop — the one inbox, ticker, clock
// and lifecycle all five engines share: a transport hands each inbound
// message to Runtime.PostMessage, which carries the sender beside the
// payload in a typed inbox entry, and the loop takes it off the inbox,
// reads the clock and calls Step(now, ev), so the hop from socket (or
// in-process network) to engine allocates nothing and the engine itself
// reads no clock. The same goroutine steps the engine's Tick when its
// ticker fires. What a replica sends itself — a leader's own
// vote, its own Stable — never touches the transport: the Runtime queues
// it and steps it before that Step returns. A decision does not resend
// what a replica holds: a leader's Stable names the command by ID to
// every replica that voted for it in the deciding phase and carries it
// whole only to the rest (a replica restarted since its vote drops the
// named form and learns the decision from the leader's whole-command
// retransmission). In-process deployments (NewLocalCluster, the
// harness) use internal/memnet and pass payloads by reference.
// Multi-process deployments (caesar-server) use internal/tcpnet over
// internal/wire: a hand-rolled binary format — a four-byte length, the
// sender, one tag byte naming the message, then its fields as uvarints
// and length-prefixed bytes, the same field code (internal/codec) the
// write-ahead log's records use — encoded into a reused buffer and decoded
// straight into the message struct, with every length checked against
// the bytes present and frames capped at 64 MiB. Each peer link encodes
// whatever its queue holds into one buffered write and flushes when the
// queue is momentarily empty: one syscall per burst, no added delay for
// a lone message. The layout table is in internal/wire's package comment.
//
// # Observability
//
// Every layer of the stack records into a unified node-wide metrics
// registry (internal/obs) and, optionally, a bounded protocol-event
// trace ring:
//
//	tr := caesar.NewTrace(8192)
//	cluster, _ := caesar.NewLocalCluster(3, caesar.WithTrace(tr))
//	...
//	fmt.Println(tr.CommandHistory(0, 17)) // propose → … → fsync → ack
//
// (Options.Trace for a single node.) A traced command's history spans
// the whole stack — proposal, acceptor votes, wait condition, retries,
// stability, WAL fsync, cross-shard hold/execute, read-fence
// park/release, resize fences, delivery and the client acknowledgement —
// each event stamped with its node of origin, so one shared ring
// reconstructs a command's life across a cluster. Recording is one short
// critical section per event and the ring overwrites its oldest entries,
// so it is safe to leave on in production.
//
// A multi-process replica always traces, into a 4,096-event ring, and
// exports the registry over HTTP:
//
//	caesar-server -metrics-addr :9100 -slow-command 100ms
//
// -slow-command turns the trace ring into a slow-command log: any
// locally submitted command whose submit→ack latency exceeds the
// threshold is dumped with its full traced history. The replica
// serves /metrics (Prometheus text format: per-group fast/slow
// decisions, wait-condition time, latency histograms, commit-table
// occupancy and held-transaction age, WAL fsync latency and segment
// stats, read-fence parks, routing epoch and resize state, per-peer
// transport messages/bytes), /statusz (the same families as JSON with
// p50/p99), /healthz + /readyz probes, and the net/http/pprof profiler.
// That listener is the server's one diagnostic surface: the client port
// serves clients only, and a server started without -metrics-addr serves
// no diagnostics. The registry reads the same lock-free counters the hot path already
// maintains, so scraping costs the scraper, not the consensus path.
//
// # Diagnosis
//
// Beyond metrics and per-command traces, every node keeps a flight
// recorder and a stall watchdog (internal/flight) for the questions an
// operator asks at 3am: "what happened on this node recently?" and "why
// is nothing making progress?".
//
// The flight recorder is an always-on, bounded, lock-cheap journal of
// structured rare events — node start/stop, leadership recoveries,
// suspected peers, retransmissions, shard resizes, routing-epoch
// installs, WAL snapshots, watchdog stalls — each stamped with a
// monotonic sequence number. It keeps the newest 1,024 events;
// Node.FlightLog dumps the tail, and every diagnosis bundle carries the
// newest 64 events.
//
// The watchdog scans, once a second, the node's own progress indicators — the oldest transaction held in
// the cross-shard commit table, the oldest read parked at its delivery
// fence, the oldest locally submitted command still missing its client
// acknowledgement — entirely from the injected clock. When any age
// crosses 10s it assembles a diagnosis bundle: the wedged
// items oldest-first, each wedged command's full traced history, the
// commit table's held-transaction detail, the rebalance coordinator's
// state, the flight-recorder tail and a goroutine profile. Each
// healthy→stalled transition is journaled (and logged as a STALL line
// by caesar-server), and bundles are always available on demand:
// Node.Diagnose and Node.LastStall (the last trip's bundle) in process,
// /debugz (current) and /debugz?last=1 (last trip) on the metrics
// listener.
//
// Each caesar-server node traces into its own ring, so one replica's
// ring shows one view. The /tracez endpoint serves a command's local
// events as JSON, and cmd/caesar-trace fetches it from every node and
// merges the per-node histories into a single causally ordered cluster
// timeline — ordered by logical timestamp and per-node sequence, never
// by wall clock:
//
//	caesar-trace -nodes http://h1:9100,http://h2:9100,http://h3:9100 -cmd c0.17
//
// See DIAGNOSING.md for the runbook: which surface to reach for first
// and a worked stall diagnosis.
//
// # Auditing
//
// The fourth observability leg answers "do the replicas still agree?".
// Every replica folds, per consensus group, a pair of 64-bit digests
// over the state it applies (internal/audit): an order-insensitive XOR
// fold, one XOR per write, because CAESAR only orders conflicting
// commands and correct replicas may interleave non-conflicting writes
// differently. The digest folds each write's effect (key, stored value,
// decided timestamp, epoch); a companion idfold folds each command's
// identity (ID, op, key, input value, epoch). Two replicas are compared
// only at a matching cut — same group, epoch, write frontier and idfold
// — so a mismatched digest there proves, in a single gather with no
// settling, that identical inputs produced different states. Lagging
// replicas are skipped, never flagged; a persistent idfold mismatch at
// equal frontiers is reported separately as an apply-set divergence.
//
// In process, Cluster.Audit runs one gather-and-compare round and
// Options.OnDivergence receives a proof bundle (group, epoch, frontier,
// both nodes, both digest pairs) the moment any round proves a
// divergence; the event is also journaled in the involved nodes' flight
// recorders and counted in caesar_audit_divergence_total. Digests are
// stamped at cut points (resize fences, WAL snapshots), persisted in
// snapshots and restored on restart, so a restarted replica re-proves
// agreement instead of starting blind.
//
// Multi-process, each caesar-server serves its audit report at /auditz
// (JSON), and can audit its peers
// continuously with -audit-peers. cmd/caesar-audit is the standalone
// checker — one round, a monitor loop, or a JSON proof bundle:
//
//	caesar-audit -nodes http://h1:9100,http://h2:9100,http://h3:9100
//
// and cmd/caesar-top is a live cluster console over /statusz:
// per-node throughput, p50/p99 latency with slowest-command exemplars,
// fast-path share, cross-shard holds, watchdog and audit status in one
// repainting table. See DIAGNOSING.md ("Is the cluster diverged?") for
// the divergence runbook.
//
// # Contention
//
// The fifth observability leg answers "which keys are costing me the
// fast path?". CAESAR's performance story is the fast-decision ratio,
// and it erodes exactly where collisions concentrate: a proposal on a
// contended key draws a NACK and retries at a higher timestamp, or
// blocks in the acceptor's §IV-A wait condition, or parks a local read
// fence behind an in-flight writer, or holds a cross-shard transaction
// open while its groups drain. Every node attributes each such event to
// the offending key (internal/contend): per consensus group, a bounded
// space-saving heavy-hitter sketch tracks the top keys with per-cause
// counts and total attributed wait time — O(K) memory regardless of
// keyspace, one short critical section per touch — while per-group
// atomic counters decompose the fast-path losses by cause (nack,
// blocked, retry, recovery). The sketches aggregate into a node-wide
// contention profile, wired by the stack into every deployment shape,
// resize-created groups included.
//
// The profile surfaces everywhere the other legs do: /workloadz on the
// metrics listener (JSON: top keys and the per-group loss table;
// ?top=N caps the list), the
// caesar_contention_losses_total{group,cause} counter family and the
// caesar_hotkey_* per-key gauges on /metrics, and a merged cluster-wide
// hot-keys panel in cmd/caesar-top. The lan3-mixed4g workload of bench/
// draws its keys zipfian and reproduces a heavy-hitter profile on demand
// (its caesar.fast_share and caesar.nacks_per_kop rows compare two
// builds' fast-path health through `go run ./bench -compare`). See
// DIAGNOSING.md ("Why is my fast-path ratio low?") for the runbook.
//
// # Linting
//
// The repo's concurrency and determinism invariants — injected clocks on
// the consensus path, nothing blocking on a group's event loop, declared
// mutex nesting orders, no mixed atomic/plain field access — are
// machine-checked by the caesarlint analyzer suite (tools/caesarlint, a
// separate zero-dependency module). Run ./scripts/lint.sh, or
// `go vet -vettool=` with the built binary; see LINTING.md for each
// invariant, the incident that motivated it, and the
// //caesarlint:allow suppression syntax.
package caesar
