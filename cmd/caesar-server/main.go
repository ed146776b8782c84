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
//	                                read across keys — and across
//	                                consensus groups; absent keys read "-")
//	MPUT <k1> <v1> <k2> <v2> ... →  OK (one atomic transaction; keys that
//	                                span groups commit through the
//	                                cross-shard layer)
//	RESIZE <n>                   →  OK <n> shards (admin: change the live
//	                                deployment's consensus-group count —
//	                                any replica accepts it, whatever
//	                                -shards it started with, 1 included)
//
// Every replica records its protocol milestones into a 4,096-event
// command-trace ring and its node-level events into a 1,024-event flight
// recorder, and runs the stall watchdog (10s threshold, scanned every
// second), logging each trip as a STALL line.
//
// The client port serves clients only. Every diagnostic is served by the
// observability HTTP listener that -metrics-addr starts: /metrics
// (Prometheus text format), /statusz (JSON), /healthz, /readyz, the
// standard pprof handlers under /debug/pprof/, /debugz (the stall
// watchdog's diagnosis bundle with the newest 64 flight-recorder events;
// ?last=1 for the most recent trip), /tracez (the command-trace ring as
// JSON; ?cmd=c0.17 filters to one command — the per-node endpoint
// cmd/caesar-trace merges across replicas), /auditz (the replica's
// applied-state digests as JSON, the endpoint cmd/caesar-audit diffs
// across replicas) and /workloadz (the contention profile: hot keys and
// per-group fast-path losses as JSON; ?top=N caps the key list). A
// replica started without -metrics-addr serves no diagnostics; its only
// operator output is the log.
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
	id          int
	peers       string
	clientAddr  string
	shards      int
	dataDir     string
	metricsAddr string
	slowCommand time.Duration
	auditPeers  string
	auditEvery  time.Duration
}

func main() {
	var o options
	flag.IntVar(&o.id, "id", 0, "this replica's id (index into -peers)")
	flag.StringVar(&o.peers, "peers", "", "comma-separated replica addresses")
	flag.StringVar(&o.clientAddr, "client", "", "client-facing listen address")
	flag.IntVar(&o.shards, "shards", 1, "independent consensus groups per node at first start (keys are routed by consistent hashing; RESIZE changes the count live, and a restart on -data-dir keeps the logged count)")
	flag.StringVar(&o.dataDir, "data-dir", "", "durable write-ahead log directory; the replica recovers from it on restart (empty = in-memory only)")
	flag.StringVar(&o.metricsAddr, "metrics-addr", "", "observability HTTP listen address serving every diagnostic: /metrics, /statusz, /debugz, /tracez, /auditz, /workloadz, /healthz, /readyz and /debug/pprof/ (empty = none)")
	flag.DurationVar(&o.slowCommand, "slow-command", 0, "log the traced history of commands slower than this submit-to-ack latency (0 disables)")
	flag.StringVar(&o.auditPeers, "audit-peers", "", "comma-separated metrics base URLs of every replica (e.g. http://127.0.0.1:9000,...); runs the cross-replica state auditor in-process (empty = off)")
	flag.DurationVar(&o.auditEvery, "audit-interval", 2*time.Second, "cadence of the in-process cross-replica auditor (needs -audit-peers)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "caesar-server:", err)
		os.Exit(1)
	}
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
	ring := trace.NewRing(4096)
	rec := flight.New(timestamp.NodeID(o.id), 1024)
	// One shared stack constructor wires store, commit table, rebalance
	// coordinator and (with -data-dir) the write-ahead log: every group
	// shares them, multi-key MPUTs spanning groups commit atomically, the
	// admin RESIZE changes the group count live, and a replica restarted
	// on the same -data-dir replays its snapshot + log tail — including
	// the routing epoch it crashed at — before rejoining. The registry and
	// trace ring thread through the same constructor, so every layer a
	// command crosses is observable.
	stk, err := stack.Build(tr, stack.Config{
		Shards:    o.shards,
		Metrics:   met,
		Obs:       reg,
		Trace:     ring,
		DataDir:   o.dataDir,
		Rebalance: true,
		Flight:    rec,
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
	go serveClients(ln, stk)
	ready.Store(true)

	// In-process cross-replica auditor: gather every replica's /auditz
	// quotes each interval and raise proven divergences on this node's
	// flight journal and divergence counter. Any replica (or all of them)
	// may run it — raised divergences dedupe per collector, and the check
	// itself is read-only.
	var auditor *audit.Collector
	if peers := obs.NodeURLs(o.auditPeers); len(peers) > 0 {
		var sources []audit.Source
		for _, base := range peers {
			sources = append(sources, audit.HTTPSource(nil, base))
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
func serveClients(ln net.Listener, stk *stack.Stack) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go handleClient(conn, stk)
	}
}

// handleResize serves the RESIZE admin command on any replica, one-group
// ones included: it changes the live deployment's consensus-group count
// through the rebalance coordinator and replies once the transition
// completed on this replica (the peers finish theirs as the markers
// deliver). A stack built without Config.Rebalance has no coordinator.
func handleResize(out *bufio.Writer, co *rebalance.Coordinator, arg string) {
	n, err := strconv.Atoi(arg)
	if err != nil || n < 1 {
		fmt.Fprintf(out, "ERR usage: RESIZE <shards> (a positive group count)\n")
		return
	}
	if co == nil {
		fmt.Fprintf(out, "ERR this replica was built without live resizing\n")
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

func handleClient(conn net.Conn, stk *stack.Stack) {
	defer conn.Close()
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
		default:
			fmt.Fprintf(out, "ERR usage: PUT <key> <value> | GET <key> | MGET <k> [<k>...] | MPUT <k> <v> [<k> <v>...] | RESIZE <shards>\n")
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
