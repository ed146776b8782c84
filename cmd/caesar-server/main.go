// Command caesar-server runs one CAESAR replica of a multi-process
// cluster: protocol traffic flows over TCP between the configured peers,
// and a line-oriented client port serves GET/PUT requests against the
// replicated key-value store.
//
// Usage (three replicas on one host):
//
//	caesar-server -id 0 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 -client 127.0.0.1:8000
//	caesar-server -id 1 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 -client 127.0.0.1:8001
//	caesar-server -id 2 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 -client 127.0.0.1:8002
//
// Client protocol (one request per line):
//
//	PUT <key> <value>            →  OK
//	GET <key>                    →  OK <value> | OK (served from the local
//	                                read engine — linearizable, no
//	                                consensus round; see internal/reads)
//	MGET <k1> <k2> ...           →  OK <v1> <v2> ... (one local snapshot
//	                                read across keys — and, with -shards,
//	                                across consensus groups; absent keys
//	                                read "-")
//	MPUT <k1> <v1> <k2> <v2> ... →  OK (one atomic transaction; with
//	                                -shards the keys may span groups and
//	                                commit through the cross-shard layer)
//	RESIZE <n>                   →  OK <n> shards (admin: change the live
//	                                deployment's consensus-group count —
//	                                any replica accepts it; requires
//	                                -shards > 1 at startup)
//	STATS                        →  OK k=v ... (admin: one-line snapshot of
//	                                the replica's protocol counters)
//	TRACE <cmd-id>               →  the traced milestones of one command
//	                                (as printed by the slow-command log,
//	                                e.g. TRACE c0.17), one per line, then
//	                                OK <n> events; needs -trace-buffer > 0.
//	                                A miss distinguishes "never traced
//	                                here" from "ring may have evicted it"
//	                                and points at caesar-trace for the
//	                                cluster-wide view.
//	DIAGNOSE                     →  the stall watchdog's on-demand
//	                                diagnosis bundle (admin: tripped
//	                                probes, commit-table detail, flight-
//	                                recorder tail), then OK
//	FLIGHT [<n>]                 →  the newest n (default 32) flight-
//	                                recorder events, then OK <n> events
//	AUDIT                        →  the replica's applied-state audit
//	                                quote: one line per consensus group
//	                                (routing epoch, write frontier, state
//	                                digest, identity fold) plus recent
//	                                cut-point stamps, then OK <n> groups —
//	                                the admin-port complement of /auditz
//	                                (cmd/caesar-audit compares these
//	                                across replicas)
//	WORKLOAD [<n>]               →  the replica's contention profile
//	                                (admin): the fast-path-loss
//	                                decomposition by cause (total, then per
//	                                consensus group) and the n hottest keys
//	                                (default 10) with their per-cause
//	                                attribution, then OK <n> keys — the
//	                                admin-port complement of /workloadz
//
// With -metrics-addr the replica additionally serves an observability
// HTTP endpoint: /metrics (Prometheus text format), /statusz (JSON),
// /healthz, /readyz, the standard pprof handlers under /debug/pprof/,
// /debugz (the stall watchdog's diagnosis bundle; ?last=1 for the most
// recent trip), /tracez (the command-trace ring as JSON; ?cmd=c0.17
// filters to one command — the per-node endpoint cmd/caesar-trace merges
// across replicas), /auditz (the replica's applied-state digests as
// JSON, the endpoint cmd/caesar-audit diffs across replicas) and
// /workloadz (the contention profile: hot keys and per-group fast-path
// losses as JSON; ?top=N caps the key list).
//
// With -audit-peers (a comma-separated list of every replica's metrics
// base URL) the replica additionally runs the cross-replica auditor
// in-process: every -audit-interval it gathers all replicas' /auditz
// quotes and, on a proven divergence, records a flight event, bumps
// caesar_audit_divergence_total and logs the proof bundle — the always-on
// alternative to running cmd/caesar-audit out-of-process.
//
// Unlike PUT — whose value runs to the end of the line — MPUT/MGET keys
// and values are single whitespace-separated tokens: a value containing a
// space would silently shift every following pair.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/caesar-consensus/caesar/internal/audit"
	"github.com/caesar-consensus/caesar/internal/batch"
	"github.com/caesar-consensus/caesar/internal/caesar"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/flight"
	"github.com/caesar-consensus/caesar/internal/metrics"
	"github.com/caesar-consensus/caesar/internal/obs"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/rebalance"
	"github.com/caesar-consensus/caesar/internal/stack"
	"github.com/caesar-consensus/caesar/internal/tcpnet"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/trace"
)

// options collects the parsed flags.
type options struct {
	id           int
	peers        string
	clientAddr   string
	shards       int
	dataDir      string
	metricsAddr  string
	traceBuffer  int
	slowCommand  time.Duration
	flightBuffer int
	stallAfter   time.Duration
	scanEvery    time.Duration
	auditPeers   string
	auditEvery   time.Duration
}

func main() {
	var o options
	flag.IntVar(&o.id, "id", 0, "this replica's id (index into -peers)")
	flag.StringVar(&o.peers, "peers", "", "comma-separated replica addresses")
	flag.StringVar(&o.clientAddr, "client", "", "client-facing listen address")
	flag.IntVar(&o.shards, "shards", 1, "independent consensus groups per node (keys are routed by consistent hashing)")
	flag.StringVar(&o.dataDir, "data-dir", "", "durable write-ahead log directory; the replica recovers from it on restart (empty = in-memory only)")
	flag.StringVar(&o.metricsAddr, "metrics-addr", "", "observability HTTP listen address serving /metrics, /statusz, /healthz, /readyz and /debug/pprof/ (empty = off)")
	flag.IntVar(&o.traceBuffer, "trace-buffer", 4096, "command-trace ring capacity in events (0 disables tracing)")
	flag.DurationVar(&o.slowCommand, "slow-command", 0, "log the traced history of commands slower than this submit-to-ack latency (0 disables)")
	flag.IntVar(&o.flightBuffer, "flight-buffer", 1024, "flight-recorder ring capacity in node-level events")
	flag.DurationVar(&o.stallAfter, "stall-threshold", 10*time.Second, "stall-watchdog trip threshold for wedged work (0 disables the watchdog)")
	flag.DurationVar(&o.scanEvery, "watchdog-interval", time.Second, "stall-watchdog scan cadence")
	flag.StringVar(&o.auditPeers, "audit-peers", "", "comma-separated metrics base URLs of every replica (e.g. http://127.0.0.1:9000,...); runs the cross-replica state auditor in-process (empty = off)")
	flag.DurationVar(&o.auditEvery, "audit-interval", 2*time.Second, "cadence of the in-process cross-replica auditor (needs -audit-peers)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "caesar-server:", err)
		os.Exit(1)
	}
}

// node bundles one replica's stack with its observability surfaces for
// the client-protocol handlers.
type node struct {
	stk  *stack.Stack
	met  *metrics.Recorder
	ring *trace.Ring
	rec  *flight.Recorder
	tr   *tcpnet.Transport
}

func run(o options) error {
	addrs := strings.Split(o.peers, ",")
	if len(addrs) < 3 {
		return fmt.Errorf("need at least 3 peers, got %d", len(addrs))
	}
	if o.clientAddr == "" {
		return fmt.Errorf("missing -client address")
	}
	tr, err := tcpnet.Listen(tcpnet.Config{Self: timestamp.NodeID(o.id), Addrs: addrs})
	if err != nil {
		return err
	}
	met := metrics.NewRecorder()
	reg := obs.NewRegistry()
	var ring *trace.Ring
	if o.traceBuffer > 0 {
		ring = trace.NewRing(o.traceBuffer)
	}
	rec := flight.New(timestamp.NodeID(o.id), o.flightBuffer)
	// One shared stack constructor wires store, commit table, rebalance
	// coordinator and (with -data-dir) the write-ahead log: every group
	// shares them, multi-key MPUTs spanning groups commit atomically, the
	// admin RESIZE changes the group count live, and a replica restarted
	// on the same -data-dir replays its snapshot + log tail — including
	// the routing epoch it crashed at — before rejoining. The registry and
	// trace ring thread through the same constructor, so every layer a
	// command crosses is observable.
	stk, err := stack.Build(tr, stack.Config{
		Shards:           o.shards,
		Metrics:          met,
		Obs:              reg,
		Trace:            ring,
		DataDir:          o.dataDir,
		Rebalance:        true,
		Flight:           rec,
		StallThreshold:   o.stallAfter,
		WatchdogInterval: o.scanEvery,
		OnStall: func(d *flight.Diagnosis) {
			for _, s := range d.Stalls {
				log.Printf("replica %d STALL %s", o.id, s)
			}
		},
		Build: stack.CaesarEngine(caesar.Config{
			Trace:         ring,
			Flight:        rec,
			SlowThreshold: o.slowCommand,
		}),
	})
	if err != nil {
		return err
	}
	// Per-peer transport counters, sampled from the transport at scrape
	// time.
	for _, p := range tr.Peers() {
		p := p
		ls := obs.Labels{"peer": strconv.Itoa(int(p))}
		reg.CounterFunc("caesar_net_sent_msgs_total",
			"Protocol messages sent to the peer.", ls,
			func() int64 { return tr.PeerStats(p).SentMsgs })
		reg.CounterFunc("caesar_net_sent_bytes_total",
			"Protocol bytes sent to the peer.", ls,
			func() int64 { return tr.PeerStats(p).SentBytes })
		reg.CounterFunc("caesar_net_recv_msgs_total",
			"Protocol messages received from the peer.", ls,
			func() int64 { return tr.PeerStats(p).RecvMsgs })
		reg.CounterFunc("caesar_net_recv_bytes_total",
			"Protocol bytes received from the peer.", ls,
			func() int64 { return tr.PeerStats(p).RecvBytes })
		if p != tr.Self() {
			reg.Gauge("caesar_net_peer_connected",
				"1 while the outbound link to the peer is dialed, 0 otherwise.", ls,
				func() float64 {
					if tr.PeerConnected(p) {
						return 1
					}
					return 0
				})
		}
	}
	reg.Gauge("caesar_net_open_connections",
		"Open transport sockets: accepted inbound plus dialed outbound links.", nil,
		func() float64 { return float64(tr.OpenConns()) })
	var ready atomic.Bool
	reg.SetReady(ready.Load)
	var msrv *http.Server
	if o.metricsAddr != "" {
		msrv = &http.Server{Addr: o.metricsAddr, Handler: reg.Handler()}
		go func() {
			if err := msrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("metrics server: %v", err)
			}
		}()
		log.Printf("replica %d observability on http://%s/metrics (pprof under /debug/pprof/)", o.id, o.metricsAddr)
	}
	stk.Start()
	if recovered := stk.Recovered; recovered != nil && !recovered.Empty {
		// The replay lands directly in the node's store (wal.OpenInto), so
		// the store is where the recovered key count lives.
		log.Printf("replica %d recovered %d keys (%d commands applied) from %s", o.id, stk.Store.Len(), recovered.Applied, o.dataDir)
	}
	log.Printf("replica %d up: protocol %s, clients %s, shards %d", o.id, addrs[o.id], o.clientAddr, stk.Shards)

	ln, err := net.Listen("tcp", o.clientAddr)
	if err != nil {
		return err
	}
	n := &node{stk: stk, met: met, ring: ring, rec: rec, tr: tr}
	go serveClients(ln, n)
	ready.Store(true)

	// In-process cross-replica auditor: gather every replica's /auditz
	// quotes each interval and raise proven divergences on this node's
	// flight journal and divergence counter. Any replica (or all of them)
	// may run it — raised divergences dedupe per collector, and the check
	// itself is read-only.
	var auditor *audit.Collector
	if o.auditPeers != "" {
		var sources []audit.Source
		for _, base := range strings.Split(o.auditPeers, ",") {
			sources = append(sources, audit.HTTPSource(nil, strings.TrimSpace(base)))
		}
		auditor = &audit.Collector{
			Sources:  sources,
			Interval: o.auditEvery,
			OnDivergence: func(d audit.Divergence) {
				log.Printf("replica %d AUDIT %s", o.id, d)
				stk.NoteDivergence(d)
			},
		}
		auditor.Start()
		log.Printf("replica %d auditing %d peers every %v", o.id, len(sources), o.auditEvery)
	}

	// Graceful shutdown on the first SIGINT/SIGTERM: stop accepting
	// clients, quiesce the engines, flush and close the WAL (clean-path
	// restarts recover from it just like hard kills — kill -9 exercises
	// the other path). A second signal force-exits.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	log.Printf("replica %d shutting down (signal again to force)", o.id)
	ready.Store(false)
	done := make(chan struct{})
	go func() {
		ln.Close()
		if msrv != nil {
			msrv.Close()
		}
		if auditor != nil {
			auditor.Stop()
		}
		stk.Stop()
		close(done)
	}()
	select {
	case <-done:
		log.Printf("replica %d stopped cleanly", o.id)
	case <-sig:
		log.Printf("replica %d forced exit", o.id)
	case <-time.After(10 * time.Second):
		log.Printf("replica %d shutdown timed out", o.id)
	}
	return nil
}

// serveClients accepts client connections and executes their requests —
// writes through consensus, reads through the node-local read engine.
func serveClients(ln net.Listener, n *node) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go handleClient(conn, n)
	}
}

// handleStats serves the STATS admin command: a one-line snapshot of the
// replica's protocol counters, the admin-port complement of /metrics.
func handleStats(out *bufio.Writer, n *node) {
	m := n.met
	shards := n.stk.Shards
	epoch := uint32(0)
	if co := n.stk.Coordinator; co != nil {
		shards = co.Shards()
		epoch = co.Epoch()
	}
	fmt.Fprintf(out,
		"OK shards=%d epoch=%d proposals=%d executed=%d fast=%d slow=%d retries=%d nacks=%d recoveries=%d read_parks=%d xshard_commits=%d xshard_aborts=%d fsyncs=%d mean_latency=%v p99_latency=%v\n",
		shards, epoch,
		m.Proposals.Load(), m.Executed.Load(),
		m.FastDecisions.Load(), m.SlowDecisions.Load(),
		m.Retries.Load(), m.Nacks.Load(), m.Recoveries.Load(),
		m.ReadFenceParks.Load(),
		m.CrossShardCommits.Load(), m.CrossShardAborts.Load(),
		m.Fsyncs.Load(),
		m.Latency.Mean(), m.Latency.Quantile(0.99))
}

// handleTrace serves the TRACE admin command: one command's buffered
// milestones, oldest first, one per line, terminated by an OK count. A
// miss says whether the command was never traced on this replica (the
// ring has not wrapped, so absence is authoritative) or may have been
// evicted — and points at caesar-trace either way, since another
// replica's ring often still holds the history.
func handleTrace(out *bufio.Writer, n *node, arg string) {
	if n.ring == nil {
		fmt.Fprintf(out, "ERR tracing disabled (start the replica with -trace-buffer > 0)\n")
		return
	}
	id, err := command.ParseID(arg)
	if err != nil {
		fmt.Fprintf(out, "ERR usage: TRACE <cmd-id>: %v\n", err)
		return
	}
	events := n.ring.CommandHistory(id)
	if len(events) == 0 {
		if _, wrapped := n.ring.Stats(); wrapped {
			fmt.Fprintf(out, "# %v not found: ring wrapped, so its history may have been evicted here (try caesar-trace to query every replica)\n", id)
		} else {
			fmt.Fprintf(out, "# %v not found: not in local ring (never traced on this replica; caesar-trace queries the others)\n", id)
		}
	}
	for _, e := range events {
		fmt.Fprintf(out, "%s\n", e)
	}
	fmt.Fprintf(out, "OK %d events\n", len(events))
}

// handleDiagnose serves the DIAGNOSE admin command: the stall watchdog's
// on-demand bundle (or, without a watchdog, the flight-recorder tail),
// one line per bundle line, terminated by OK.
func handleDiagnose(out *bufio.Writer, n *node) {
	var body string
	if wd := n.stk.Watchdog; wd != nil {
		body = wd.Diagnose().Render()
	} else {
		body = "watchdog disabled (start the replica with -stall-threshold > 0)\n" +
			flight.Format(n.rec.Tail(32))
	}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		fmt.Fprintf(out, "%s\n", line)
	}
	fmt.Fprintf(out, "OK\n")
}

// handleFlight serves the FLIGHT admin command: the newest n events of
// the node's flight recorder, oldest-first.
func handleFlight(out *bufio.Writer, n *node, args []string) {
	max := 32
	if len(args) == 1 {
		v, err := strconv.Atoi(args[0])
		if err != nil || v < 1 {
			fmt.Fprintf(out, "ERR usage: FLIGHT [<max-events>]\n")
			return
		}
		max = v
	}
	events := n.rec.Tail(max)
	for _, e := range events {
		fmt.Fprintf(out, "%s\n", e)
	}
	fmt.Fprintf(out, "OK %d events\n", len(events))
}

// handleAudit serves the AUDIT admin command: the replica's applied-state
// audit quote, the admin-port complement of /auditz. One comment line of
// node context, one line per consensus group (epoch, write frontier,
// state digest, identity fold), the recent cut-point stamps, then an OK
// count. cmd/caesar-audit compares the same quotes across replicas.
func handleAudit(out *bufio.Writer, n *node) {
	rep := n.stk.AuditReport()
	fmt.Fprintf(out, "# node=%s epoch=%d resizing=%v applied=%d divergences=%d\n",
		rep.Node, rep.Epoch, rep.Resizing, rep.Applied, n.stk.AuditDivergences())
	for _, g := range rep.Groups {
		fmt.Fprintf(out, "group=%d epoch=%d frontier=%d digest=%s idfold=%s\n",
			g.Group, g.Epoch, g.Frontier, g.Digest, g.IDFold)
	}
	for _, s := range rep.Stamps {
		fmt.Fprintf(out, "stamp kind=%s seq=%d group=%d epoch=%d frontier=%d digest=%s\n",
			s.Kind, s.Seq, s.Group, s.Epoch, s.Frontier, s.Digest)
	}
	fmt.Fprintf(out, "OK %d groups\n", len(rep.Groups))
}

// handleWorkload serves the WORKLOAD admin command: the node's contention
// profile — the fast-path-loss decomposition (total, then per consensus
// group) followed by the hottest keys with their per-cause attribution —
// the admin-port complement of /workloadz.
func handleWorkload(out *bufio.Writer, n *node, args []string) {
	max := 10
	if len(args) == 1 {
		v, err := strconv.Atoi(args[0])
		if err != nil || v < 1 {
			fmt.Fprintf(out, "ERR usage: WORKLOAD [<max-keys>]\n")
			return
		}
		max = v
	}
	p := n.stk.Contend
	tot := p.TotalLosses()
	fmt.Fprintf(out, "# fast-path losses: nack=%d blocked=%d retry=%d recovery=%d\n",
		tot.Nack, tot.Blocked, tot.Retry, tot.Recovery)
	for _, gl := range p.GroupLossTable() {
		fmt.Fprintf(out, "group=%d nack=%d blocked=%d retry=%d recovery=%d\n",
			gl.Group, gl.Losses.Nack, gl.Losses.Blocked, gl.Losses.Retry, gl.Losses.Recovery)
	}
	keys := p.TopKeys(max)
	for _, ks := range keys {
		fmt.Fprintf(out, "key=%s group=%d events=%d touches=%d nacks=%d waits=%d parks=%d retries=%d recoveries=%d holds=%d wait=%s\n",
			ks.Key, ks.Group, ks.Events, ks.Touches, ks.Nacks, ks.Waits,
			ks.Parks, ks.Retries, ks.Recoveries, ks.Holds, ks.WaitTime)
	}
	fmt.Fprintf(out, "OK %d keys\n", len(keys))
}

// handleResize serves the RESIZE admin command: it changes the live
// deployment's consensus-group count through the rebalance coordinator
// and replies once the transition completed on this replica (the peers
// finish theirs as the markers deliver).
func handleResize(out *bufio.Writer, co *rebalance.Coordinator, arg string) {
	n, err := strconv.Atoi(arg)
	if err != nil || n < 1 {
		fmt.Fprintf(out, "ERR usage: RESIZE <shards> (a positive group count)\n")
		return
	}
	if co == nil {
		fmt.Fprintf(out, "ERR this replica is not sharded (start it with -shards > 1)\n")
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := co.Resize(ctx, n); err != nil {
		fmt.Fprintf(out, "ERR %v\n", err)
		return
	}
	fmt.Fprintf(out, "OK %d shards\n", co.Shards())
}

// parseMPut builds one atomic multi-put transaction from an MPUT line.
// Keys and values are single tokens (no spaces) — see the client protocol
// comment above.
func parseMPut(line string) (command.Command, error) {
	fields := strings.Fields(line)[1:]
	if len(fields) == 0 || len(fields)%2 != 0 {
		return command.Command{}, fmt.Errorf("usage: MPUT <key> <value> [<key> <value>...] (single-token values)")
	}
	cmds := make([]command.Command, 0, len(fields)/2)
	for i := 0; i < len(fields); i += 2 {
		cmds = append(cmds, command.Put(fields[i], []byte(fields[i+1])))
	}
	if len(cmds) == 1 {
		return cmds[0], nil
	}
	return batch.Pack(cmds)
}

// readTimeout bounds a local read's frontier wait; a read that cannot
// settle within it (a wedged deployment) reports the error instead of
// hanging the connection.
const readTimeout = 30 * time.Second

// handleGet serves GET from the node-local read engine — stamped against
// the key's group clock, answered once the delivery frontier passes the
// stamp, linearizable with no consensus round.
func handleGet(out *bufio.Writer, stk *stack.Stack, key string) {
	ctx, cancel := context.WithTimeout(context.Background(), readTimeout)
	defer cancel()
	val, _, err := stk.Reads.Read(ctx, key)
	switch {
	case err != nil:
		fmt.Fprintf(out, "ERR %v\n", err)
	case len(val) > 0:
		fmt.Fprintf(out, "OK %s\n", val)
	default:
		fmt.Fprintf(out, "OK\n")
	}
}

// handleMGet serves MGET: one consistent local snapshot across the keys
// (and, in a sharded deployment, across consensus groups) at a merged
// read timestamp — an atomic MPUT's values appear all together or not at
// all. Absent keys render as "-".
func handleMGet(out *bufio.Writer, stk *stack.Stack, keys []string) {
	if len(keys) == 0 {
		fmt.Fprintf(out, "ERR usage: MGET <key> [<key>...]\n")
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), readTimeout)
	defer cancel()
	vals, present, err := stk.Reads.ReadTx(ctx, keys)
	if err != nil {
		fmt.Fprintf(out, "ERR %v\n", err)
		return
	}
	parts := make([]string, len(vals))
	for i, v := range vals {
		if !present[i] || len(v) == 0 {
			parts[i] = "-"
			continue
		}
		parts[i] = string(v)
	}
	fmt.Fprintf(out, "OK %s\n", strings.Join(parts, " "))
}

func handleClient(conn net.Conn, n *node) {
	defer conn.Close()
	stk := n.stk
	rep := stk.Engine
	sc := bufio.NewScanner(conn)
	out := bufio.NewWriter(conn)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		fields := strings.SplitN(line, " ", 3)
		var cmd command.Command
		switch {
		case len(fields) == 3 && strings.EqualFold(fields[0], "PUT"):
			cmd = command.Put(fields[1], []byte(fields[2]))
		case len(fields) == 2 && strings.EqualFold(fields[0], "GET"):
			handleGet(out, stk, fields[1])
			out.Flush()
			continue
		case strings.EqualFold(fields[0], "MGET"):
			// Re-tokenize on purpose: fields came from SplitN(line, 3)
			// (PUT values run to end of line), which would fold keys
			// 2..N into one token.
			handleMGet(out, stk, strings.Fields(line)[1:])
			out.Flush()
			continue
		case strings.EqualFold(fields[0], "MPUT"):
			var err error
			if cmd, err = parseMPut(line); err != nil {
				fmt.Fprintf(out, "ERR %v\n", err)
				out.Flush()
				continue
			}
		case len(fields) == 2 && strings.EqualFold(fields[0], "RESIZE"):
			handleResize(out, stk.Coordinator, fields[1])
			out.Flush()
			continue
		case len(fields) == 1 && strings.EqualFold(fields[0], "STATS"):
			handleStats(out, n)
			out.Flush()
			continue
		case len(fields) == 2 && strings.EqualFold(fields[0], "TRACE"):
			handleTrace(out, n, fields[1])
			out.Flush()
			continue
		case len(fields) == 1 && strings.EqualFold(fields[0], "DIAGNOSE"):
			handleDiagnose(out, n)
			out.Flush()
			continue
		case strings.EqualFold(fields[0], "FLIGHT"):
			handleFlight(out, n, strings.Fields(line)[1:])
			out.Flush()
			continue
		case len(fields) == 1 && strings.EqualFold(fields[0], "AUDIT"):
			handleAudit(out, n)
			out.Flush()
			continue
		case strings.EqualFold(fields[0], "WORKLOAD"):
			handleWorkload(out, n, strings.Fields(line)[1:])
			out.Flush()
			continue
		default:
			fmt.Fprintf(out, "ERR usage: PUT <key> <value> | GET <key> | MGET <k> [<k>...] | MPUT <k> <v> [<k> <v>...] | RESIZE <shards> | STATS | TRACE <cmd-id> | DIAGNOSE | FLIGHT [<n>] | AUDIT | WORKLOAD [<n>]\n")
			out.Flush()
			continue
		}
		ch := make(chan protocol.Result, 1)
		rep.Submit(cmd, func(res protocol.Result) { ch <- res })
		res := <-ch
		switch {
		case res.Err != nil:
			fmt.Fprintf(out, "ERR %v\n", res.Err)
		case len(res.Value) > 0:
			fmt.Fprintf(out, "OK %s\n", res.Value)
		default:
			fmt.Fprintf(out, "OK\n")
		}
		out.Flush()
	}
}
