package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/caesar-consensus/caesar/internal/caesar"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/contend"
	"github.com/caesar-consensus/caesar/internal/kvstore"
	"github.com/caesar-consensus/caesar/internal/memnet"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/shard"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/transport"
	"github.com/caesar-consensus/caesar/internal/wal"
	"github.com/caesar-consensus/caesar/internal/wire"
)

// [M] microbenchmarks: each layer's exported entry points called in
// isolation, for about cfg.micro of wall time each. They run after the
// cluster is gone, so nothing competes with them.

// timeLoop calls fn in batches until budget has elapsed and returns the
// mean ns per call, the calls made, and the mallocs per call.
func timeLoop(budget time.Duration, fn func(i int)) (nsPerOp float64, n int, allocsPerOp float64) {
	const batch = 256
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	start := time.Now()
	for time.Since(start) < budget {
		for i := 0; i < batch; i++ {
			fn(n + i)
		}
		n += batch
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms)
	return float64(elapsed) / float64(n), n, float64(ms.Mallocs-mallocs) / float64(n)
}

func microKeys() []string {
	return newKeyspace(&workload{nodes: 1, shards: 1}).keys[sharedPool:]
}

func runMicro(cfg runCfg, samples []any, set func(string, float64)) {
	runtime.GC()
	keys := microKeys()

	encNs, decNs, bytesPer, allocsPer := microWire(samples, cfg.micro)
	set("wire.encode_ns", encNs)
	set("wire.decode_ns", decNs)
	set("wire.bytes_per_msg", bytesPer)
	set("wire.allocs_per_msg", allocsPer)

	if rtt, rate, err := microTCP(cfg.micro); err == nil {
		set("tcpnet.pingpong_us", rtt)
		set("tcpnet.stream_msgs_per_s", rate)
	}

	opsPerS, allocs := microCaesar(cfg.micro, keys)
	set("caesar.only_ops_per_s", opsPerS)
	set("caesar.only_allocs_per_op", allocs)

	if serialUs, concurrent, err := microWAL(cfg.micro, filepath.Join(cfg.outDir, "micro-wal-"+cfg.w.name)); err == nil {
		set("wal.append_sync_us", serialUs)
		set("wal.concurrent_ops_per_s", concurrent)
	}

	store := kvstore.New()
	val := opValue(0, 0)
	applyNs, n, applyAllocs := timeLoop(cfg.micro, func(i int) {
		cmd := command.Put(keys[i%len(keys)], val)
		cmd.ID = command.ID{Seq: uint64(i + 1)}
		store.ApplyAt(cmd, timestamp.Timestamp{Seq: uint64(i + 1)})
	})
	set("kvstore.apply_ns", applyNs)
	set("kvstore.allocs_per_apply", applyAllocs)
	at := timestamp.Timestamp{Seq: uint64(n + 1)}
	getNs, _, _ := timeLoop(cfg.micro, func(i int) { store.GetAt(keys[i%len(keys)], 0, at) })
	set("kvstore.getat_ns", getNs)

	router := shard.NewRouter(4)
	routeNs, _, _ := timeLoop(cfg.micro/4, func(i int) { router.Shard(keys[i%len(keys)]) })
	set("shard.route_ns", routeNs)

	group := contend.NewProfile(0).Group(0)
	touchNs, _, _ := timeLoop(cfg.micro/4, func(i int) { group.Touch(keys[i%len(keys)]) })
	set("contend.touch_ns", touchNs)
}

// countWriter discards what is written and counts it.
type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

// microWire replays the payloads the traced endpoints sampled through
// the wire codec exactly as a tcpnet link does: one long-lived encoder
// and decoder per stream, so gob's type descriptors are paid once.
func microWire(samples []any, budget time.Duration) (encNs, decNs, bytesPerMsg, allocsPerMsg float64) {
	if len(samples) == 0 {
		return 0, 0, 0, 0
	}
	envs := make([]*wire.Envelope, len(samples))
	for i, p := range samples {
		envs[i] = &wire.Envelope{From: 1, Payload: p}
	}
	cw := &countWriter{}
	enc := wire.NewEncoder(cw)
	for _, env := range envs {
		_ = enc.Encode(env) // descriptors go out with the first of each type
	}
	cw.n = 0
	encNs, n, encAllocs := timeLoop(budget, func(i int) { _ = enc.Encode(envs[i%len(envs)]) })
	bytesPerMsg = float64(cw.n) / float64(n)

	// Decode: fill a buffer with a warm pass plus the measured passes.
	var buf bytes.Buffer
	enc = wire.NewEncoder(&buf)
	passes := 1 + 32768/len(envs)
	for p := 0; p <= passes; p++ {
		for _, env := range envs {
			_ = enc.Encode(env)
		}
	}
	dec := wire.NewDecoder(&buf)
	var env wire.Envelope
	for range envs {
		_ = dec.Decode(&env)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	start := time.Now()
	decoded := 0
	for {
		env = wire.Envelope{}
		if err := dec.Decode(&env); err != nil {
			break // io.EOF: the buffer is drained
		}
		decoded++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms)
	if decoded > 0 {
		decNs = float64(elapsed) / float64(decoded)
		allocsPerMsg = encAllocs + float64(ms.Mallocs-mallocs)/float64(decoded)
	}
	return encNs, decNs, bytesPerMsg, allocsPerMsg
}

// microPayload is the message the transport microbenchmarks carry: a fast
// proposal of one 16-byte put, the most common message on every workload.
func microPayload() any {
	cmd := command.Put("p0-0000", opValue(0, 0))
	cmd.ID = command.ID{Node: 0, Seq: 1}
	return &caesar.FastPropose{Cmd: cmd, Time: timestamp.Timestamp{Seq: 1}}
}

// microTCP measures two tcpnet endpoints on loopback: the median round
// trip of one message echoed back, and one-way streaming throughput.
func microTCP(budget time.Duration) (pingpongUs, streamPerS float64, err error) {
	trs, err := listenAll(2)
	if err != nil {
		return 0, 0, err
	}
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()
	a, b := trs[0], trs[1]
	payload := microPayload()
	pong := make(chan struct{}, 1)
	var received atomic.Int64
	var echo atomic.Bool
	echo.Store(true)
	streamed := make(chan struct{}, 1)
	var want atomic.Int64
	a.SetHandler(func(timestamp.NodeID, any) { pong <- struct{}{} })
	b.SetHandler(func(_ timestamp.NodeID, p any) {
		if echo.Load() {
			b.Send(0, p)
			return
		}
		if received.Add(1) == want.Load() {
			streamed <- struct{}{}
		}
	})
	var rtts []float64
	for start := time.Now(); time.Since(start) < budget; {
		t := time.Now()
		a.Send(1, payload)
		select {
		case <-pong:
		case <-time.After(opTimeout):
			return 0, 0, context.DeadlineExceeded
		}
		rtts = append(rtts, float64(time.Since(t))/1e3)
	}
	sort.Float64s(rtts)
	pingpongUs = quantile(rtts, 0.5)

	echo.Store(false)
	want.Store(-1)
	start := time.Now()
	sent := int64(0)
	for time.Since(start) < budget {
		for i := 0; i < 256; i++ {
			a.Send(1, payload)
		}
		sent += 256
	}
	want.Store(sent)
	if received.Load() < sent {
		select {
		case <-streamed:
		case <-time.After(opTimeout):
			return 0, 0, context.DeadlineExceeded
		}
	}
	return pingpongUs, float64(sent) / time.Since(start).Seconds(), nil
}

// loopNet is a rig-owned zero-delay in-process transport: Send calls the
// destination's handler directly. It isolates the consensus engine from
// every transport and codec cost.
type loopNet struct {
	mu       sync.RWMutex
	handlers []transport.Handler
}

type loopEndpoint struct {
	net *loopNet
	id  timestamp.NodeID
}

func (e *loopEndpoint) Self() timestamp.NodeID { return e.id }

func (e *loopEndpoint) Peers() []timestamp.NodeID {
	peers := make([]timestamp.NodeID, len(e.net.handlers))
	for i := range peers {
		peers[i] = timestamp.NodeID(i)
	}
	return peers
}

func (e *loopEndpoint) Send(to timestamp.NodeID, payload any) {
	e.net.mu.RLock()
	h := e.net.handlers[to]
	e.net.mu.RUnlock()
	if h != nil {
		h(e.id, payload)
	}
}

func (e *loopEndpoint) Broadcast(payload any) {
	for i := range e.net.handlers {
		e.Send(timestamp.NodeID(i), payload)
	}
}

func (e *loopEndpoint) SetHandler(h transport.Handler) {
	e.net.mu.Lock()
	e.net.handlers[e.id] = h
	e.net.mu.Unlock()
}

func (e *loopEndpoint) Close() error {
	e.SetHandler(nil)
	return nil
}

// microCaesar drives three bare CAESAR replicas (no stack, no-op applier,
// zero-delay transport) closed loop with satInFlight non-conflicting
// commands outstanding.
func microCaesar(budget time.Duration, keys []string) (opsPerS, allocsPerOp float64) {
	const n = 3
	net := &loopNet{handlers: make([]transport.Handler, n)}
	noop := protocol.ApplierFunc(func(command.Command) []byte { return nil })
	reps := make([]*caesar.Replica, n)
	for i := range reps {
		reps[i] = caesar.New(&loopEndpoint{net: net, id: timestamp.NodeID(i)}, noop, caesar.Config{})
	}
	for _, r := range reps {
		r.Start()
	}
	defer func() {
		for _, r := range reps {
			r.Stop()
		}
	}()
	tokens := make(chan struct{}, satInFlight)
	done := func(protocol.Result) { tokens <- struct{}{} }
	val := opValue(0, 0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	start := time.Now()
	issued, completed := 0, 0
	submit := func() {
		reps[issued%n].Submit(command.Put(keys[issued%len(keys)], val), done)
		issued++
	}
	for issued < satInFlight {
		submit()
	}
	for time.Since(start) < budget {
		<-tokens
		completed++
		submit()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms)
	for completed < issued {
		select {
		case <-tokens:
			completed++
		case <-time.After(opTimeout):
			completed = issued
		}
	}
	if completed == 0 {
		return 0, 0
	}
	return float64(completed) / elapsed.Seconds(), float64(ms.Mallocs-mallocs) / float64(completed)
}

// microWAL measures the log alone on the benchmark's filesystem: serial
// appends (one fsync each) and satInFlight concurrent appenders over four
// groups (what group commit can batch).
func microWAL(budget time.Duration, dir string) (serialUs, concurrentPerS float64, err error) {
	if err := os.RemoveAll(dir); err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	log, _, err := wal.OpenInto(dir, kvstore.New(), wal.Options{})
	if err != nil {
		return 0, 0, err
	}
	defer log.Close()
	val := opValue(0, 0)
	apply := func() []byte { return nil }
	var seq atomic.Uint64
	append1 := func(group int32) error {
		n := seq.Add(1)
		cmd := command.Put("p0-0000", val)
		cmd.ID = command.ID{Seq: n}
		_, err := log.LogCommand(group, cmd, timestamp.Timestamp{Seq: n}, apply)
		return err
	}
	start := time.Now()
	n := 0
	for time.Since(start) < budget {
		if err := append1(0); err != nil {
			return 0, 0, err
		}
		n++
	}
	serialUs = float64(time.Since(start).Microseconds()) / float64(n)

	var total atomic.Int64
	var wg sync.WaitGroup
	start = time.Now()
	for i := 0; i < satInFlight; i++ {
		wg.Add(1)
		go func(group int32) {
			defer wg.Done()
			for time.Since(start) < budget {
				if append1(group) != nil {
					return
				}
				total.Add(1)
			}
		}(int32(i % 4))
	}
	wg.Wait()
	return serialUs, float64(total.Load()) / time.Since(start).Seconds(), nil
}

// idleReadNs times local reads on the quiesced cluster: no write is in
// flight, so no fence parks — the read path's fixed cost.
func (a *attempt) idleReadNs(budget time.Duration) float64 {
	rd := a.c.stacks[a.c.live()[0]].Reads
	ctx := context.Background()
	keys := a.ks.keys
	if len(keys) > sharedPool {
		keys = keys[:sharedPool]
	}
	ns, _, _ := timeLoop(budget, func(i int) { _, _, _ = rd.Read(ctx, keys[i%len(keys)]) })
	return ns
}

// minQuorumRTTms is the smallest round trip any node needs to hear from a
// fast quorum under the injected delays: no write can be acknowledged
// faster than that.
func minQuorumRTTms(w *workload) float64 {
	delay := memnet.GeoDelay(geoScale)
	fast := (3*w.nodes + 3) / 4 // caesar's fast quorum size, self included
	best := 0.0
	for i := 0; i < w.nodes; i++ {
		var rtts []float64
		for j := 0; j < w.nodes; j++ {
			if i != j {
				rtts = append(rtts, ms(delay(timestamp.NodeID(i), timestamp.NodeID(j))+delay(timestamp.NodeID(j), timestamp.NodeID(i))))
			}
		}
		sort.Float64s(rtts)
		if q := rtts[fast-2]; i == 0 || q < best {
			best = q
		}
	}
	return best
}
