package shard

import (
	"fmt"
	"sync"

	"github.com/caesar-consensus/caesar/internal/chunk"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/transport"
)

// Envelope tags a protocol message with the shard it belongs to, giving
// every shard one logical channel over a shared transport. internal/wire
// frames it as tag 13 — shard, generation, then the inner message by its
// own tag — so tagged traffic crosses tcpnet unchanged. Gen is
// the generation of the group instance the message belongs to (the routing
// epoch the instance was created at): after a live resize retires and
// later recreates a shard slot, traffic from the dead instance carries an
// older generation and is dropped instead of corrupting its successor.
// Group 0 sends no envelope: its messages travel bare (see Mux).
//
// Envelopes come from chunks (internal/chunk) — each shard endpoint's on
// the sending side, each wire decoder's on the receiving side — so never
// write to one once it has been handed on.
type Envelope struct {
	Shard   int32
	Gen     int32
	Payload any
}

// pendingCap bounds the per-slot buffer of inbound messages that arrived
// before the slot's handler registered — the window between a peer
// creating a new group during a resize and this node catching up. Beyond
// the cap the newest messages are dropped, mirroring the transports'
// silent-drop semantics; consensus recovers them through retries.
const pendingCap = 8192

// MaxGroups is the most consensus groups a node runs. It bounds how far
// inbound traffic can grow the slot table: a corrupt or hostile envelope
// with an absurd shard number must not make the node allocate (and buffer
// for) billions of phantom slots. Local Attach calls — driven by
// consensus-agreed resizes — share the bound, so a group count above it is
// refused where it enters: the node's configuration (stack.Build), a
// resize request and a resize marker (internal/rebalance).
const MaxGroups = 4096

// ValidGroups reports whether a node can run n consensus groups: the one
// test every entry point of a group count applies.
func ValidGroups(n int) bool { return n >= 1 && n <= MaxGroups }

// muxSlot is one shard's channel state.
type muxSlot struct {
	handler transport.Handler
	gen     int32
	// retired marks a slot whose instance was retired: traffic of its
	// generation is dropped (not buffered) until a newer generation
	// attaches.
	retired bool
	// pending buffers inbound envelopes of the current (or a future)
	// generation while no handler is registered.
	pending []pendingMsg
}

type pendingMsg struct {
	from    timestamp.NodeID
	gen     int32
	payload any
}

// Mux splits one transport.Endpoint into per-shard logical endpoints: each
// outbound payload of a group other than 0 is wrapped in an Envelope, and
// inbound envelopes are dispatched to the handler registered for their
// shard. Group 0 is never retired, so its generation is always 0, and its
// payloads travel bare: an inbound payload that is not an Envelope is
// group 0's at generation 0. Out-of-range or stale-generation traffic is
// dropped; traffic for a shard that exists but has no handler yet (a group
// being created mid-resize) is buffered until the handler registers.
type Mux struct {
	ep transport.Endpoint

	mu    sync.RWMutex
	slots []muxSlot
}

// NewMux attaches to ep and demultiplexes shards logical channels over it.
// The mux owns ep's inbound handler from this point on. The initial slots
// are generation 0.
func NewMux(ep transport.Endpoint, shards int) *Mux {
	if shards < 1 {
		shards = 1
	}
	m := &Mux{ep: ep, slots: make([]muxSlot, shards)}
	ep.SetHandler(m.dispatch)
	return m
}

// dispatch unwraps one inbound envelope — or takes a bare payload as group
// 0's — and hands it to its shard, or buffers it when the shard's instance
// is still being created.
func (m *Mux) dispatch(from timestamp.NodeID, payload any) {
	var shard, gen int32
	if env, ok := payload.(*Envelope); ok {
		shard, gen, payload = env.Shard, env.Gen, env.Payload
	}
	if shard < 0 {
		return
	}
	m.mu.RLock()
	var h transport.Handler
	if int(shard) < len(m.slots) {
		slot := &m.slots[shard]
		if gen == slot.gen {
			h = slot.handler
		}
	}
	m.mu.RUnlock()
	if h != nil {
		h(from, payload)
		return
	}
	m.buffer(shard, pendingMsg{from: from, gen: gen, payload: payload})
}

// buffer holds a message for a handler that has not registered yet: the
// shard slot may not exist (a growth resize this node has not learned of),
// or it exists with no handler, or the message belongs to a future
// generation. Stale generations are dropped.
func (m *Mux) buffer(shard int32, p pendingMsg) {
	if int(shard) >= MaxGroups {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for int(shard) >= len(m.slots) {
		m.slots = append(m.slots, muxSlot{gen: -1})
	}
	slot := &m.slots[shard]
	if p.gen == slot.gen && slot.handler != nil {
		// The handler registered between the RLock check and here;
		// deliver in-line (handlers must tolerate concurrent calls, as
		// every transport already requires).
		h := slot.handler
		m.mu.Unlock()
		h(p.from, p.payload)
		m.mu.Lock()
		return
	}
	if p.gen < slot.gen || (slot.retired && p.gen <= slot.gen) || len(slot.pending) >= pendingCap {
		return
	}
	slot.pending = append(slot.pending, p)
}

// Attach creates (or revives) the slot for shard at generation gen and
// returns its endpoint. Growing a resize calls it with the new routing
// epoch as the generation; buffered traffic of that generation is
// preserved for the handler, anything older is discarded. Group 0 attaches
// at generation 0 only: its traffic carries no generation on the wire.
func (m *Mux) Attach(shard int, gen int32) transport.Endpoint {
	if shard < 0 || shard >= MaxGroups {
		panic(fmt.Sprintf("shard: attach of shard %d outside [0,%d)", shard, MaxGroups))
	}
	if shard == 0 && gen != 0 {
		panic(fmt.Sprintf("shard: attach of group 0 at generation %d; group 0 is never retired and travels bare at generation 0", gen))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for shard >= len(m.slots) {
		m.slots = append(m.slots, muxSlot{gen: -1})
	}
	slot := &m.slots[shard]
	if gen > slot.gen {
		slot.gen = gen
		slot.handler = nil
		kept := slot.pending[:0]
		for _, p := range slot.pending {
			if p.gen == gen {
				kept = append(kept, p)
			}
		}
		slot.pending = kept
	}
	slot.retired = false
	return &subEndpoint{mux: m, shard: int32(shard), gen: slot.gen}
}

// Retire deregisters a shard's handler and discards its buffered traffic;
// in-flight envelopes for it are dropped from now on. The slot can be
// revived later by Attach with a higher generation.
func (m *Mux) Retire(shard int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if shard < 0 || shard >= len(m.slots) {
		return
	}
	m.slots[shard].handler = nil
	m.slots[shard].pending = nil
	m.slots[shard].retired = true
}

// Close detaches the mux from the underlying endpoint and closes it. All
// shard handlers are deregistered first, so an envelope already in flight
// through a delivery goroutine is dropped instead of being dispatched into
// a stopped group.
func (m *Mux) Close() error {
	m.mu.Lock()
	for i := range m.slots {
		m.slots[i].handler = nil
		m.slots[i].pending = nil
	}
	m.mu.Unlock()
	return m.ep.Close()
}

// subEndpoint is one shard instance's logical channel. Closing it only
// deregisters that instance's handler; the shared endpoint stays open for
// its siblings until Mux.Close.
type subEndpoint struct {
	mux   *Mux
	shard int32
	gen   int32

	envMu sync.Mutex
	envs  chunk.Of[Envelope]
}

var _ transport.Endpoint = (*subEndpoint)(nil)

func (s *subEndpoint) Self() timestamp.NodeID    { return s.mux.ep.Self() }
func (s *subEndpoint) Peers() []timestamp.NodeID { return s.mux.ep.Peers() }

func (s *subEndpoint) Send(to timestamp.NodeID, payload any) {
	s.mux.ep.Send(to, s.envelope(payload))
}

func (s *subEndpoint) Broadcast(payload any) {
	s.mux.ep.Broadcast(s.envelope(payload))
}

// envelope wraps payload in a fresh envelope from the endpoint's chunks,
// except group 0's, which travels bare.
func (s *subEndpoint) envelope(payload any) any {
	if s.shard == 0 {
		return payload
	}
	s.envMu.Lock()
	env := s.envs.Next()
	s.envMu.Unlock()
	*env = Envelope{Shard: s.shard, Gen: s.gen, Payload: payload}
	return env
}

func (s *subEndpoint) SetHandler(h transport.Handler) {
	s.mux.mu.Lock()
	if int(s.shard) >= len(s.mux.slots) {
		s.mux.mu.Unlock()
		return
	}
	slot := &s.mux.slots[s.shard]
	if slot.gen != s.gen {
		s.mux.mu.Unlock()
		return // a newer instance took the slot
	}
	slot.handler = h
	pending := slot.pending
	slot.pending = nil
	s.mux.mu.Unlock()
	if h == nil {
		return
	}
	for _, p := range pending {
		if p.gen == s.gen {
			h(p.from, p.payload)
		}
	}
}

func (s *subEndpoint) Close() error {
	s.mux.mu.Lock()
	defer s.mux.mu.Unlock()
	if int(s.shard) < len(s.mux.slots) && s.mux.slots[s.shard].gen == s.gen {
		s.mux.slots[s.shard].handler = nil
	}
	return nil
}
