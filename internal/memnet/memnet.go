// Package memnet is an in-process network that simulates a geo-replicated
// deployment: every ordered pair of nodes is a FIFO link with a configurable
// one-way delay and jitter, and the network can inject crashes, partitions
// and probabilistic message loss.
//
// It substitutes for the paper's Amazon EC2 testbed (§VI): the protocols
// only observe message delays and orderings, so injecting the paper's
// measured inter-site round-trip times reproduces the environment the
// evaluation depends on. A Scale knob shrinks wall-clock time while
// preserving delay ratios.
package memnet

import (
	"math/rand"
	"sync"
	"time"

	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/transport"
)

// DelayFunc returns the one-way delay from one node to another.
type DelayFunc func(from, to timestamp.NodeID) time.Duration

// Config parametrises a Network.
type Config struct {
	// Nodes is the cluster size N.
	Nodes int
	// Delay supplies per-link one-way delays; nil means zero delay
	// everywhere (a "local cluster").
	Delay DelayFunc
	// Jitter adds a uniform random delay in [0, Jitter) to every message.
	Jitter time.Duration
	// Seed seeds the jitter/drop randomness; 0 selects a fixed default so
	// runs are reproducible unless a seed is chosen explicitly.
	Seed int64
}

// queueSize bounds each link's in-flight queue. Sends beyond it block
// the sender, providing backpressure. (This channel is intentionally
// larger than the style guide's "one or none": links model a network
// pipe, and the capacity is the pipe's BDP.)
const queueSize = 4096

type envelope struct {
	from, to timestamp.NodeID
	payload  any
	due      time.Time
}

// link is a FIFO pipe between an ordered pair of nodes, drained by one
// goroutine that enforces the delivery time.
type link struct {
	ch chan envelope
}

// Network is a simulated cluster interconnect. Create endpoints with
// Endpoint, then Close when done to stop the delivery goroutines.
type Network struct {
	cfg   Config
	links map[[2]timestamp.NodeID]*link

	mu        sync.Mutex
	rng       *rand.Rand
	crashed   map[timestamp.NodeID]bool
	cut       map[[2]timestamp.NodeID]bool // severed ordered pairs
	dropProb  map[[2]timestamp.NodeID]float64
	handlers  map[timestamp.NodeID]transport.Handler
	closed    bool
	closeOnce sync.Once
	done      chan struct{}
	wg        sync.WaitGroup
}

// New builds the network and starts its delivery goroutines.
func New(cfg Config) *Network {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	n := &Network{
		cfg:      cfg,
		links:    make(map[[2]timestamp.NodeID]*link, cfg.Nodes*cfg.Nodes),
		rng:      rand.New(rand.NewSource(seed)),
		crashed:  make(map[timestamp.NodeID]bool),
		cut:      make(map[[2]timestamp.NodeID]bool),
		dropProb: make(map[[2]timestamp.NodeID]float64),
		handlers: make(map[timestamp.NodeID]transport.Handler),
		done:     make(chan struct{}),
	}
	for i := 0; i < cfg.Nodes; i++ {
		for j := 0; j < cfg.Nodes; j++ {
			key := [2]timestamp.NodeID{timestamp.NodeID(i), timestamp.NodeID(j)}
			l := &link{ch: make(chan envelope, queueSize)}
			n.links[key] = l
			n.wg.Add(1)
			go n.drain(l)
		}
	}
	return n
}

// drain delivers the link's messages in FIFO order at their due times.
func (n *Network) drain(l *link) {
	defer n.wg.Done()
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		select {
		case <-n.done:
			return
		case env := <-l.ch:
			if wait := time.Until(env.due); wait > 0 {
				timer.Reset(wait)
				select {
				case <-n.done:
					timer.Stop()
					return
				case <-timer.C:
				}
			}
			n.deliver(env)
		}
	}
}

// deliver hands the envelope to the destination handler unless the
// destination crashed or the link is cut at delivery time.
func (n *Network) deliver(env envelope) {
	n.mu.Lock()
	blocked := n.crashed[env.from] || n.crashed[env.to] ||
		n.cut[[2]timestamp.NodeID{env.from, env.to}]
	h := n.handlers[env.to]
	n.mu.Unlock()
	if blocked || h == nil {
		return
	}
	h(env.from, env.payload)
}

// send enqueues one message; it computes the delivery deadline up front so
// queueing delay and propagation delay compose like a real pipe.
func (n *Network) send(from, to timestamp.NodeID, payload any) {
	n.mu.Lock()
	if n.closed || n.crashed[from] || n.crashed[to] || n.cut[[2]timestamp.NodeID{from, to}] {
		n.mu.Unlock()
		return
	}
	if p := n.dropProb[[2]timestamp.NodeID{from, to}]; p > 0 && n.rng.Float64() < p {
		n.mu.Unlock()
		return
	}
	var jitter time.Duration
	if n.cfg.Jitter > 0 {
		jitter = time.Duration(n.rng.Int63n(int64(n.cfg.Jitter)))
	}
	n.mu.Unlock()

	var delay time.Duration
	if n.cfg.Delay != nil && from != to {
		delay = n.cfg.Delay(from, to)
	}
	env := envelope{from: from, to: to, payload: payload, due: time.Now().Add(delay + jitter)}
	l := n.links[[2]timestamp.NodeID{from, to}]
	select {
	case l.ch <- env:
	case <-n.done:
	}
}

// Endpoint returns node id's attachment to the network.
func (n *Network) Endpoint(id timestamp.NodeID) transport.Endpoint {
	return &endpoint{net: n, id: id}
}

// Crash disconnects a node permanently: all traffic to and from it is
// dropped from now on, including messages already in flight.
func (n *Network) Crash(id timestamp.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.crashed[id] = true
}

// Restore reconnects a crashed node: traffic to and from it flows again
// from now on. The node's old endpoint stays detached (its Close
// deregistered the handler, and a crashed process's endpoint is gone
// anyway); the restarted replica attaches through a fresh Endpoint call.
func (n *Network) Restore(id timestamp.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.crashed, id)
}

// Crashed reports whether the node was crashed.
func (n *Network) Crashed(id timestamp.NodeID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.crashed[id]
}

// Partition severs both directions between a and b.
func (n *Network) Partition(a, b timestamp.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cut[[2]timestamp.NodeID{a, b}] = true
	n.cut[[2]timestamp.NodeID{b, a}] = true
}

// Heal restores both directions between a and b.
func (n *Network) Heal(a, b timestamp.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.cut, [2]timestamp.NodeID{a, b})
	delete(n.cut, [2]timestamp.NodeID{b, a})
}

// SetDropProb makes the from→to link lose each message independently with
// probability p. The consensus engines assume reliable links, so this is
// only for targeted fault tests.
func (n *Network) SetDropProb(from, to timestamp.NodeID, p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dropProb[[2]timestamp.NodeID{from, to}] = p
}

// Close stops every delivery goroutine and drops all in-flight traffic.
func (n *Network) Close() {
	n.closeOnce.Do(func() {
		n.mu.Lock()
		n.closed = true
		n.mu.Unlock()
		close(n.done)
		n.wg.Wait()
	})
}

// endpoint implements transport.Endpoint on a Network.
type endpoint struct {
	net *Network
	id  timestamp.NodeID
}

var _ transport.Endpoint = (*endpoint)(nil)

func (e *endpoint) Self() timestamp.NodeID { return e.id }

func (e *endpoint) Peers() []timestamp.NodeID {
	peers := make([]timestamp.NodeID, e.net.cfg.Nodes)
	for i := range peers {
		peers[i] = timestamp.NodeID(i)
	}
	return peers
}

func (e *endpoint) Send(to timestamp.NodeID, payload any) {
	e.net.send(e.id, to, payload)
}

func (e *endpoint) Broadcast(payload any) {
	for i := 0; i < e.net.cfg.Nodes; i++ {
		e.net.send(e.id, timestamp.NodeID(i), payload)
	}
}

func (e *endpoint) SetHandler(h transport.Handler) {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	e.net.handlers[e.id] = h
}

func (e *endpoint) Close() error {
	e.net.mu.Lock()
	defer e.net.mu.Unlock()
	delete(e.net.handlers, e.id)
	return nil
}
