package caesar

// A replica is a function of the events it handles: fed the same messages,
// submissions and ticks in the same order, it sends the same messages in
// the same order and applies the same commands in the same order. The
// tests here drive unstarted replicas from one goroutine — a queueing
// network, one fake clock, a pump that delivers FIFO through handle — so
// the only freedom left is the replica's own, and assert there is none.

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/metrics"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/transport"
)

// simMsg is one message in flight.
type simMsg struct {
	from, to timestamp.NodeID
	payload  any
}

// simNet is n unstarted replicas, the messages between them and their
// clock. Nothing runs unless the test calls submit, tick or pump.
type simNet struct {
	t       testing.TB
	n       int
	clock   *fakeClock
	reps    []*Replica
	applied [][]command.ID
	queue   []simMsg
	// down marks crashed nodes: they are not ticked and what is addressed
	// to them is lost. drop, when set, loses the messages it returns true
	// for at delivery.
	down []bool
	drop func(simMsg) bool
	// sent is the transcript: every message between two nodes (what a
	// node sends itself never leaves its Step) in the order it was sent,
	// rendered with %T%+v (a message holds IDs, timestamps, strings, bytes
	// and slices of them — no map and no pointer, so the rendering is a
	// function of its content).
	sent strings.Builder
}

type simEP struct {
	net  *simNet
	self timestamp.NodeID
}

var _ transport.Endpoint = (*simEP)(nil)

func (e *simEP) Self() timestamp.NodeID { return e.self }
func (e *simEP) Peers() []timestamp.NodeID {
	peers := make([]timestamp.NodeID, e.net.n)
	for i := range peers {
		peers[i] = timestamp.NodeID(i)
	}
	return peers
}

// Send queues a message to a peer. A replica steps what it sends itself
// within the Step that sent it, so neither a self-addressed Send nor a
// Broadcast (which includes self) may reach the network.
func (e *simEP) Send(to timestamp.NodeID, payload any) {
	if to == e.self {
		e.net.t.Fatalf("node %v sent itself %T through the network", e.self, payload)
	}
	e.net.send(e.self, to, payload)
}
func (e *simEP) Broadcast(payload any) {
	e.net.t.Fatalf("node %v broadcast %T through the network", e.self, payload)
}
func (e *simEP) SetHandler(transport.Handler) {}
func (e *simEP) Close() error                 { return nil }

// newSimNet builds n replicas; cfg gives each its configuration (Now is
// set to the shared fake clock).
func newSimNet(t testing.TB, n int, cfg func(node int) Config) *simNet {
	net := &simNet{
		t:       t,
		n:       n,
		clock:   &fakeClock{now: time.Unix(4_000_000, 0)},
		applied: make([][]command.ID, n),
		down:    make([]bool, n),
	}
	for i := 0; i < n; i++ {
		c := cfg(i)
		c.Now = net.clock.Now
		node := i // go.mod says 1.21: the loop variable is shared
		app := protocol.ApplierFunc(func(cmd command.Command) []byte {
			net.applied[node] = append(net.applied[node], cmd.ID)
			return nil
		})
		net.reps = append(net.reps, New(&simEP{net: net, self: timestamp.NodeID(i)}, app, c))
	}
	return net
}

// send queues one message and writes it into the transcript. A test also
// calls it directly to inject what a crashed leader got out before dying.
func (n *simNet) send(from, to timestamp.NodeID, payload any) {
	fmt.Fprintf(&n.sent, "%v→%v %T%+v\n", from, to, payload, payload)
	n.queue = append(n.queue, simMsg{from: from, to: to, payload: payload})
}

// pump delivers queued messages, oldest first, until none is left.
func (n *simNet) pump() {
	for len(n.queue) > 0 {
		m := n.queue[0]
		n.queue = n.queue[1:]
		if n.down[m.to] || (n.drop != nil && n.drop(m)) {
			continue
		}
		n.reps[m.to].Step(n.clock.Now(), protocol.Event{From: m.from, Remote: true, Payload: m.payload})
	}
}

// tick advances the clock, ticks every live replica in node order and
// delivers what that sets off.
func (n *simNet) tick(d time.Duration) {
	now := n.clock.Advance(d)
	for i, rep := range n.reps {
		if !n.down[i] {
			rep.Step(now, protocol.Event{Payload: protocol.Tick{}})
		}
	}
	n.pump()
}

func (n *simNet) submit(node int, cmd command.Command, done protocol.DoneFunc) {
	n.reps[node].Step(n.clock.Now(), protocol.Event{Payload: &protocol.Submission{Cmd: cmd, Done: done}})
}

// transcriptRun plays the fixed script once and returns the transcript and
// every replica's apply order.
func transcriptRun(t *testing.T) (string, [][]command.ID) {
	t.Helper()
	net := newSimNet(t, 5, func(int) Config { return Config{} })
	acked := 0
	done := func(res protocol.Result) {
		if res.Err != nil {
			t.Fatalf("submission failed: %v", res.Err)
		}
		acked++
	}
	put := func(node int, key string) {
		net.submit(node, command.Put(key, []byte{byte(node)}), done)
	}

	// Conflicting commands on two keys from three leaders, all in flight
	// together: the wait condition, rejections and retries decide them.
	for _, s := range []struct {
		node int
		key  string
	}{{0, "x"}, {1, "y"}, {2, "x"}, {0, "y"}, {1, "x"}, {2, "y"}} {
		put(s.node, s.key)
	}
	net.pump()
	// One GC flush in which every replica owes acks to three leaders; the
	// purges follow.
	net.tick(100 * time.Millisecond)
	net.tick(100 * time.Millisecond)

	// Two of node 3's proposals miss the fast quorum (4 of 5): the votes of
	// nodes 1 and 2 are lost, both fast-quorum timeouts expire in one tick,
	// and both commands go through the slow proposal phase.
	net.drop = func(m simMsg) bool {
		_, vote := m.payload.(*FastProposeReply)
		return vote && m.to == 3 && (m.from == 1 || m.from == 2)
	}
	put(3, "x")
	put(3, "y")
	net.pump()
	for i := 0; i < 5; i++ {
		net.tick(100 * time.Millisecond)
	}
	net.drop = nil

	// Node 4 dies in the middle of two broadcasts: its FastPropose for c2
	// reached node 0 only, its Retry for c1 nodes 0 and 1 — whose accepted
	// tuples differ, because node 0 alone counts c2 among c1's
	// predecessors. The survivors suspect node 4 a second later; node 0
	// finds two unfinished commands of it, and c1's recovery quorum holds
	// both accepted tuples.
	net.down[4] = true
	c1, c2 := command.Put("x", []byte("c1")), command.Put("x", []byte("c2"))
	c1.ID, c2.ID = command.ID{Node: 4, Seq: 1}, command.ID{Node: 4, Seq: 2}
	net.send(4, 0, &FastPropose{Cmd: c2, Time: timestamp.Timestamp{Seq: 100, Node: 4}})
	for _, to := range []timestamp.NodeID{0, 1} {
		net.send(4, to, &Retry{Cmd: c1, Time: timestamp.Timestamp{Seq: 101, Node: 4}})
	}
	net.pump()
	if a, b := net.reps[0].hist.get(c1.ID), net.reps[1].hist.get(c1.ID); a.status != StatusAccepted ||
		b.status != StatusAccepted || slices.Equal(a.pred, b.pred) {
		t.Fatalf("script broken: want two different accepted tuples of c1, have %v %v and %v %v", a.status, a.pred, b.status, b.pred)
	}
	for i := 0; i < 40; i++ {
		net.tick(100 * time.Millisecond)
	}

	if acked != 8 {
		t.Fatalf("%d of 8 submissions acknowledged", acked)
	}
	for i, applied := range net.applied[:4] {
		if len(applied) != 10 {
			t.Fatalf("node %d applied %d of 10 commands: %v", i, len(applied), applied)
		}
	}
	if recoveries := net.reps[0].met.Recoveries.Load(); recoveries < 2 {
		t.Fatalf("script broken: node 0 ran %d recoveries, want c1's and c2's", recoveries)
	}
	return net.sent.String(), net.applied
}

// TestTranscriptReproducible plays one script twenty times: conflicting
// commands, two fast-quorum timeouts in one tick, GC acks owed to three
// leaders in one flush, a suspected leader with two unfinished commands
// and a recovery choosing between two accepted tuples. Every run must send
// byte for byte the same messages in the same order and apply the same
// commands in the same order on every replica — with any of those walks
// left to a map's iteration order, two runs in one process already differ.
func TestTranscriptReproducible(t *testing.T) {
	first, firstApplied := transcriptRun(t)
	for _, want := range []string{"SlowPropose", "Retry", "Recover", "StableAckBatch", "PurgeBatch"} {
		if !strings.Contains(first, " *caesar."+want+"&{") {
			t.Fatalf("script broken: the transcript holds no %s", want)
		}
	}
	for run := 2; run <= 20; run++ {
		got, applied := transcriptRun(t)
		if got != first {
			a, b := strings.Split(first, "\n"), strings.Split(got, "\n")
			for i := 0; i < min(len(a), len(b)); i++ {
				if a[i] != b[i] {
					t.Fatalf("run %d diverges from run 1 at message %d of %d:\n run 1: %s\n run %d: %s", run, i+1, len(a), a[i], run, b[i])
				}
			}
			t.Fatalf("run %d sent %d messages, run 1 %d", run, len(b), len(a))
		}
		for node := range applied {
			if !slices.Equal(applied[node], firstApplied[node]) {
				t.Fatalf("run %d: node %d applied %v, run 1 %v", run, node, applied[node], firstApplied[node])
			}
		}
	}
}

// TestSelfTakeoverKeepsSubmitInstant: a locally submitted command whose
// proposal wedged (every vote lost) is finished five seconds later by its
// own leader's ballot-protected takeover. The coordinator the takeover
// installs replaces the one the submission created; the command's latency
// sample and the slow-command log must still count from the submission.
func TestSelfTakeoverKeepsSubmitInstant(t *testing.T) {
	met := metrics.NewRecorder()
	slow := 0
	net := newSimNet(t, 3, func(node int) Config {
		cfg := Config{HeartbeatInterval: -1} // the takeover is started by hand
		if node == 0 {
			cfg.Metrics = met
			cfg.SlowThreshold = time.Second
			cfg.SlowLog = func(string, ...any) { slow++ }
		}
		return cfg
	})
	net.drop = func(m simMsg) bool {
		vote, ok := m.payload.(*FastProposeReply)
		return ok && vote.Ballot == 0
	}
	acked := 0
	net.submit(0, command.Put("k", nil), func(protocol.Result) { acked++ })
	net.pump()
	id := command.ID{Node: 0, Seq: 1}
	if acked != 0 || net.reps[0].hist.get(id).status != StatusFastPending {
		t.Fatal("script broken: the proposal should be wedged fast-pending")
	}

	// Between two steps, five seconds later: what Inspect would run on a
	// live loop.
	r := net.reps[0]
	r.now = net.clock.Advance(5 * time.Second)
	r.startRecovery(r.hist.get(id))
	r.Step(r.now, protocol.Event{}) // an empty step: Inspect's loopback after fn
	net.pump()
	if c := net.reps[0].hist.get(id).coord; acked != 1 || c == nil || c.ballot != 1 {
		t.Fatalf("the takeover did not finish the command: %d ack(s), coordinator %+v", acked, c)
	}
	if n, total := met.Latency.Count(), met.Latency.Sum(); n != 1 || total < 5*time.Second {
		t.Fatalf("latency histogram holds %d sample(s) totalling %v, want one of at least 5s", n, total)
	}
	if slow != 1 {
		t.Fatalf("slow-command log fired %d times, want once", slow)
	}
}

// watchStables makes net record every Stable it delivers between two nodes.
func watchStables(net *simNet, also func(simMsg) bool) *[]simMsg {
	var stables []simMsg
	net.drop = func(m simMsg) bool {
		if _, ok := m.payload.(*Stable); ok {
			stables = append(stables, m)
		}
		return also != nil && also(m)
	}
	return &stables
}

// byName reports whether a Stable names its command by ID alone.
func byName(m simMsg, id command.ID) bool {
	s := m.payload.(*Stable)
	return s.Cmd.ID == id && s.Cmd.Op == 0 && s.Cmd.Key == "" && s.Cmd.Value == nil && s.Cmd.Payload == nil
}

// TestStableByNameFastDecision: at N=3 the fast quorum is every replica, so
// a fast decision's Stable names the command to both peers — no key, no
// value — and each delivers the command it voted for.
func TestStableByNameFastDecision(t *testing.T) {
	net := newSimNet(t, 3, func(int) Config { return Config{HeartbeatInterval: -1} })
	stables := watchStables(net, nil)
	acked := 0
	net.submit(0, command.Put("k", []byte("v")), func(res protocol.Result) {
		if res.Err == nil {
			acked++
		}
	})
	net.pump()
	id := command.ID{Node: 0, Seq: 1}
	if len(*stables) != 2 {
		t.Fatalf("%d Stables crossed the network, want one to each peer", len(*stables))
	}
	for _, m := range *stables {
		if !byName(m, id) {
			t.Fatalf("the Stable to voter %v carries %+v, want the ID alone", m.to, m.payload.(*Stable).Cmd)
		}
	}
	if fast := net.reps[0].met.FastDecisions.Load(); acked != 1 || fast != 1 {
		t.Fatalf("%d acknowledgement(s), %d fast decision(s), want one of each", acked, fast)
	}
	for node, applied := range net.applied {
		if !slices.Equal(applied, []command.ID{id}) {
			t.Fatalf("node %d applied %v, want [%v]", node, applied, id)
		}
		if rec := net.reps[node].hist.get(id); rec.cmd.Key != "k" || string(rec.cmd.Value) != "v" {
			t.Fatalf("node %d's record holds %+v, want the command whole", node, rec.cmd)
		}
	}
}

// TestStableByNameIgnoredByRestartedVoter: a voter that lost its history
// between its vote and the decision — a restart — cannot resolve a Stable
// by name. It drops it without planting a record or acknowledging, so the
// leader keeps the command unpurged and re-sends the decision whole after
// RetransmitAfter; that one it delivers.
func TestStableByNameIgnoredByRestartedVoter(t *testing.T) {
	net := newSimNet(t, 3, func(int) Config { return Config{HeartbeatInterval: -1} })
	wiped := false
	stables := watchStables(net, func(m simMsg) bool {
		if m.to == 2 && !wiped {
			if _, ok := m.payload.(*Stable); ok {
				net.reps[2].hist = newHistory()
				wiped = true
			}
		}
		return false
	})
	net.submit(0, command.Put("k", []byte("v")), nil)
	net.pump()
	id := command.ID{Node: 0, Seq: 1}
	if !wiped || !byName((*stables)[len(*stables)-1], id) {
		t.Fatal("script broken: node 2 should have been sent the decision by name")
	}
	if rec := net.reps[2].hist.get(id); rec != nil {
		t.Fatalf("the Stable by name planted a record on the restarted voter: %+v", rec.cmd)
	}
	if len(net.applied[2]) != 0 || len(net.reps[2].ackPending[0]) != 0 {
		t.Fatalf("the restarted voter applied %v and owes acks %v, want neither", net.applied[2], net.reps[2].ackPending[0])
	}

	// A GC flush later the leader holds acks from nodes 0 and 1 only.
	net.tick(100 * time.Millisecond)
	if leader := net.reps[0].hist.get(id); leader == nil || leader.acked != 0b011 {
		t.Fatalf("the leader purged the command or holds the wrong acks after a flush: %+v", leader)
	}
	sent := len(*stables)
	for i := 0; i < 20 && len(net.applied[2]) == 0; i++ {
		net.tick(100 * time.Millisecond)
	}
	if !slices.Equal(net.applied[2], []command.ID{id}) {
		t.Fatalf("the restarted voter applied %v after the retransmission window, want [%v]", net.applied[2], id)
	}
	if len(*stables) != sent+1 {
		t.Fatalf("%d Stables after the first broadcast, want the one retransmission", len(*stables)-sent)
	}
	if resend := (*stables)[sent]; resend.to != 2 || resend.payload.(*Stable).Cmd.Key != "k" {
		t.Fatalf("the retransmission to node %v carries %+v, want the command whole to node 2", resend.to, resend.payload.(*Stable).Cmd)
	}
	for i := 0; i < 3; i++ {
		net.tick(100 * time.Millisecond)
	}
	for node, rep := range net.reps {
		if rep.hist.get(id) != nil {
			t.Fatalf("node %d still holds the command: the restarted voter's ack never completed the purge", node)
		}
	}
}

// TestStableByNameMixedAtFiveNodes: at N=5 a fast decision needs four of
// the five votes. The replica that never saw the proposal gets the
// command whole, the three other voters by name, and all five deliver.
func TestStableByNameMixedAtFiveNodes(t *testing.T) {
	net := newSimNet(t, 5, func(int) Config { return Config{HeartbeatInterval: -1} })
	stables := watchStables(net, func(m simMsg) bool {
		_, propose := m.payload.(*FastPropose)
		return propose && m.to == 4
	})
	net.submit(0, command.Put("k", []byte("v")), nil)
	net.pump()
	id := command.ID{Node: 0, Seq: 1}
	if fast := net.reps[0].met.FastDecisions.Load(); fast != 1 || len(*stables) != 4 {
		t.Fatalf("%d fast decision(s), %d Stables on the network, want 1 and 4", fast, len(*stables))
	}
	for _, m := range *stables {
		cmd := m.payload.(*Stable).Cmd
		switch {
		case m.to == 4 && (cmd.Key != "k" || string(cmd.Value) != "v"):
			t.Fatalf("the non-voter got %+v, want the command whole", cmd)
		case m.to != 4 && !byName(m, id):
			t.Fatalf("voter %v got %+v, want the ID alone", m.to, cmd)
		}
	}
	for node, applied := range net.applied {
		if !slices.Equal(applied, []command.ID{id}) {
			t.Fatalf("node %d applied %v, want [%v]", node, applied, id)
		}
	}
}
