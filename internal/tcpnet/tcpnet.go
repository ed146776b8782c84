// Package tcpnet is the real-sockets transport for multi-process
// deployments: every node listens on its configured address, lazily dials
// its peers, and exchanges length-framed binary envelopes (internal/wire)
// over persistent TCP connections with automatic reconnection.
//
// Each peer link is one goroutine draining one queue. It takes everything
// the queue holds at that moment (at most sendBatch envelopes), encodes
// the lot into a buffered writer and flushes once: a burst costs one
// write syscall, and a lone message is flushed the moment it is encoded —
// the link never waits for more traffic. A batch whose write or flush
// fails is encoded again, whole, on the next connection; the peer may
// then see the head of the batch twice, which the protocol tolerates as
// it tolerates any retransmission. Inbound connections are read through
// one buffered reader each.
package tcpnet

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/transport"
	"github.com/caesar-consensus/caesar/internal/wire"
)

// Config describes the cluster's addresses.
type Config struct {
	// Self is this node's ID; Addrs[Self] is the listen address.
	Self timestamp.NodeID
	// Addrs maps node IDs (0..N-1 by index) to host:port addresses.
	Addrs []string
	// DialRetry is the backoff between reconnect attempts. Default
	// 500ms.
	DialRetry time.Duration
}

// queueSize bounds each peer's outbound queue.
const queueSize = 4096

// Transport implements transport.Endpoint over TCP.
type Transport struct {
	cfg      Config
	listener net.Listener
	counters []peerCounters // one per peer, indexed by NodeID

	handler atomic.Pointer[transport.Handler]
	sends   []chan any // per-peer outbound queues

	mu     sync.Mutex
	closed bool
	done   chan struct{}
	wg     sync.WaitGroup

	// inboundOpen counts currently accepted inbound connections; with
	// the per-peer outbound connected flags it feeds the node's
	// open-connections gauge.
	inboundOpen atomic.Int64
}

// PeerStats is a point-in-time snapshot of one peer link's traffic.
// Self-sends short-circuit the sockets and count as messages with zero
// bytes.
type PeerStats struct {
	SentMsgs, SentBytes int64
	RecvMsgs, RecvBytes int64
}

type peerCounters struct {
	sentMsgs, sentBytes atomic.Int64
	recvMsgs, recvBytes atomic.Int64
	// connected reports the outbound link to this peer as currently
	// dialed; the open-connections gauge samples it.
	connected atomic.Bool
}

// PeerStats returns one peer link's traffic counters; out-of-range peers
// read zero.
func (t *Transport) PeerStats(peer timestamp.NodeID) PeerStats {
	if int(peer) < 0 || int(peer) >= len(t.counters) {
		return PeerStats{}
	}
	c := &t.counters[peer]
	return PeerStats{
		SentMsgs:  c.sentMsgs.Load(),
		SentBytes: c.sentBytes.Load(),
		RecvMsgs:  c.recvMsgs.Load(),
		RecvBytes: c.recvBytes.Load(),
	}
}

// OpenConns returns the number of currently open transport connections:
// accepted inbound links plus dialed outbound peer links. The process
// connection gauge samples it at scrape time.
func (t *Transport) OpenConns() int64 {
	n := t.inboundOpen.Load()
	for i := range t.counters {
		if timestamp.NodeID(i) == t.cfg.Self {
			continue
		}
		if t.counters[i].connected.Load() {
			n++
		}
	}
	return n
}

// PeerConnected reports whether the outbound link to peer is currently
// dialed; out-of-range peers read false.
func (t *Transport) PeerConnected(peer timestamp.NodeID) bool {
	if int(peer) < 0 || int(peer) >= len(t.counters) {
		return false
	}
	return t.counters[peer].connected.Load()
}

// Stats returns per-peer traffic counters, indexed by node ID.
func (t *Transport) Stats() []PeerStats {
	out := make([]PeerStats, len(t.counters))
	for i := range t.counters {
		c := &t.counters[i]
		out[i] = PeerStats{
			SentMsgs:  c.sentMsgs.Load(),
			SentBytes: c.sentBytes.Load(),
			RecvMsgs:  c.recvMsgs.Load(),
			RecvBytes: c.recvBytes.Load(),
		}
	}
	return out
}

// sendBatch caps the envelopes one flush carries, which bounds both what
// a link holds for a retry and how much a failed flush can duplicate.
const sendBatch = 128

// linkBuffer sizes each link's buffered writer and each inbound
// connection's buffered reader: a full batch of ordinary messages (a
// proposal of a small put is ~50 bytes, a reply ~25) fits, so it goes out
// in one write.
const linkBuffer = 8 << 10

// countingWriter and countingReader tally the bytes of whole frames: the
// wire codec writes one frame per Write and reads exactly one frame per
// Decode, and both sit on the codec's side of the buffering.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

var _ transport.Endpoint = (*Transport)(nil)

// Listen starts the transport: it binds the listen socket immediately and
// connects to peers in the background.
func Listen(cfg Config) (*Transport, error) {
	if cfg.DialRetry == 0 {
		cfg.DialRetry = 500 * time.Millisecond
	}
	if cfg.Self < 0 || int(cfg.Self) >= len(cfg.Addrs) {
		return nil, fmt.Errorf("tcpnet: self id %d outside address list", cfg.Self)
	}
	ln, err := net.Listen("tcp", cfg.Addrs[cfg.Self])
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen %s: %w", cfg.Addrs[cfg.Self], err)
	}
	t := &Transport{
		cfg:      cfg,
		listener: ln,
		counters: make([]peerCounters, len(cfg.Addrs)),
		sends:    make([]chan any, len(cfg.Addrs)),
		done:     make(chan struct{}),
	}
	for i := range t.sends {
		t.sends[i] = make(chan any, queueSize)
	}
	t.wg.Add(1)
	go t.acceptLoop()
	for i := range cfg.Addrs {
		peer := timestamp.NodeID(i)
		t.wg.Add(1)
		go t.sendLoop(peer)
	}
	return t, nil
}

// Self implements transport.Endpoint.
func (t *Transport) Self() timestamp.NodeID { return t.cfg.Self }

// Peers implements transport.Endpoint.
func (t *Transport) Peers() []timestamp.NodeID {
	peers := make([]timestamp.NodeID, len(t.cfg.Addrs))
	for i := range peers {
		peers[i] = timestamp.NodeID(i)
	}
	return peers
}

// SetHandler implements transport.Endpoint.
func (t *Transport) SetHandler(h transport.Handler) {
	if h == nil {
		t.handler.Store(nil)
		return
	}
	t.handler.Store(&h)
}

// deliver hands one inbound message to the registered handler, if any.
func (t *Transport) deliver(from timestamp.NodeID, payload any) {
	if h := t.handler.Load(); h != nil {
		(*h)(from, payload)
	}
}

// Send implements transport.Endpoint. Messages to unreachable peers are
// buffered until the queue fills, then block (backpressure); messages are
// dropped when the transport closes.
func (t *Transport) Send(to timestamp.NodeID, payload any) {
	if int(to) < 0 || int(to) >= len(t.sends) {
		return
	}
	select {
	case t.sends[to] <- payload:
	case <-t.done:
	}
}

// Broadcast implements transport.Endpoint.
func (t *Transport) Broadcast(payload any) {
	for i := range t.sends {
		t.Send(timestamp.NodeID(i), payload)
	}
}

// Close implements transport.Endpoint.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	close(t.done)
	err := t.listener.Close()
	t.wg.Wait()
	return err
}

// acceptLoop serves inbound connections.
func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			select {
			case <-t.done:
				return
			default:
				continue
			}
		}
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

// readLoop decodes envelopes from one inbound connection until the
// connection fails, the peer sends something that is not a frame, or the
// transport closes.
func (t *Transport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	t.inboundOpen.Add(1)
	defer t.inboundOpen.Add(-1)
	// Close unblocks the read by closing the connection under it; the
	// watcher that does so ends with this loop.
	ended := make(chan struct{})
	defer close(ended)
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		select {
		case <-t.done:
		case <-ended:
		}
		conn.Close()
	}()
	cr := &countingReader{r: bufio.NewReaderSize(conn, linkBuffer)}
	dec := wire.NewDecoder(cr)
	var env wire.Envelope
	for {
		if err := dec.Decode(&env); err != nil {
			return
		}
		if i := int(env.From); i >= 0 && i < len(t.counters) {
			t.counters[i].recvMsgs.Add(1)
			t.counters[i].recvBytes.Add(cr.n)
		}
		cr.n = 0
		t.deliver(env.From, env.Payload)
	}
}

// sendLoop owns the outbound connection to one peer: dial (with retries),
// drain the queue a batch at a time, reconnect on error. Self-sends
// short-circuit to the handler to keep local message order tight.
func (t *Transport) sendLoop(peer timestamp.NodeID) {
	defer t.wg.Done()
	ctr := &t.counters[peer]
	queue := t.sends[peer]
	if peer == t.cfg.Self {
		for {
			select {
			case <-t.done:
				return
			case payload := <-queue:
				ctr.sentMsgs.Add(1)
				ctr.recvMsgs.Add(1)
				t.deliver(t.cfg.Self, payload)
			}
		}
	}
	var conn net.Conn
	defer func() {
		ctr.connected.Store(false)
		if conn != nil {
			conn.Close()
		}
	}()
	bw := bufio.NewWriterSize(nil, linkBuffer)
	cw := &countingWriter{w: bw}
	enc := wire.NewEncoder(cw)
	env := wire.Envelope{From: t.cfg.Self}
	batch := make([]any, 0, sendBatch)
	// write puts the whole batch on the current connection and reports
	// how many envelopes it framed; one the codec cannot frame is dropped,
	// like a message to a peer that does not exist.
	write := func() (int64, error) {
		var framed int64
		for _, payload := range batch {
			env.Payload = payload
			switch err := enc.Encode(&env); {
			case err == nil:
				framed++
			case !errors.Is(err, wire.ErrMessage):
				return 0, err
			}
		}
		return framed, bw.Flush()
	}
	for {
		select {
		case <-t.done:
			return
		case payload := <-queue:
			batch = append(batch, payload)
		}
	burst:
		for len(batch) < sendBatch {
			select {
			case payload := <-queue:
				batch = append(batch, payload)
			default:
				break burst
			}
		}
		for {
			if conn == nil {
				if conn = t.dial(peer); conn == nil {
					return
				}
				bw.Reset(conn)
				ctr.connected.Store(true)
			}
			cw.n = 0
			framed, err := write()
			if err == nil {
				ctr.sentMsgs.Add(framed)
				ctr.sentBytes.Add(cw.n)
				break
			}
			conn.Close()
			conn = nil
			ctr.connected.Store(false)
			select {
			case <-t.done:
				return
			case <-time.After(t.cfg.DialRetry):
			}
		}
		clear(batch)
		batch = batch[:0]
	}
}

// dial connects to peer, retrying every DialRetry; nil means the
// transport closed first.
func (t *Transport) dial(peer timestamp.NodeID) net.Conn {
	for {
		conn, err := net.DialTimeout("tcp", t.cfg.Addrs[peer], 2*time.Second)
		if err == nil {
			return conn
		}
		select {
		case <-t.done:
			return nil
		case <-time.After(t.cfg.DialRetry):
		}
	}
}
