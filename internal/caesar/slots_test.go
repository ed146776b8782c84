package caesar

import (
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/chunk"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/quorum"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// TestSentMessagesAreNeverReused: the FastPropose, FastProposeReply and
// Stable a replica sends are slots of its chunks, and a transport may hold
// one long after the step that sent it. Over more than two chunks of each
// kind, every message the stub endpoint kept must still read as it did
// when it was sent, and no two sends may share a slot.
func TestSentMessagesAreNeverReused(t *testing.T) {
	const sends = 2*chunk.Size + 1
	// Self is outside the peer list, so every message lands in the stub.
	r, ep := testReplica(5)

	kinds := []struct {
		name string
		send func(i int)
	}{
		{"FastPropose", func(i int) {
			c := &coordinator{cmd: put(5, uint64(i+1), "k"), ballot: uint32(i)}
			var whitelist []command.ID
			if i%2 == 0 {
				whitelist = []command.ID{{Node: 1, Seq: uint64(i)}}
			}
			r.startFastProposal(c, ts(uint64(i+1), 5), whitelist, whitelist != nil)
		}},
		{"FastProposeReply", func(i int) {
			r.reply(3, command.ID{Node: 3, Seq: uint64(i + 1)}, ts(uint64(i+1), 3), []command.ID{{Node: 0, Seq: uint64(i)}}, uint32(i), false, i%3 == 0)
		}},
		{"Stable", func(i int) {
			c := &coordinator{cmd: put(5, uint64(i+1), "k"), ballot: uint32(i), ts: ts(uint64(i+1), 5), phase: phaseStable,
				pred: []command.ID{{Node: 2, Seq: uint64(i)}}, votes: quorum.NewTracker(r.fq)}
			for v := int32(0); v < int32(i%6); v++ {
				c.votes.Add(v)
			}
			r.startStable(c)
		}},
	}
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			ep.clear()
			type kept struct {
				send int
				msg  any // a pointer, as sent
				want any // what it pointed at right after the send
			}
			var all []kept
			owner := make(map[any]int)
			for i := 0; i < sends; i++ {
				from := len(ep.sent)
				kind.send(i)
				if len(ep.sent) == from {
					t.Fatalf("send %d sent nothing", i)
				}
				for _, s := range ep.sent[from:] {
					if prev, ok := owner[s.payload]; ok && prev != i {
						t.Fatalf("send %d reuses the slot %p of send %d", i, s.payload, prev)
					}
					owner[s.payload] = i
					all = append(all, kept{i, s.payload, reflect.ValueOf(s.payload).Elem().Interface()})
				}
			}
			for _, k := range all {
				if now := reflect.ValueOf(k.msg).Elem().Interface(); !reflect.DeepEqual(now, k.want) {
					t.Fatalf("send %d of %d: message changed after it was sent\nsent %#v\nnow  %#v", k.send, sends, k.want, now)
				}
			}
		})
	}
}

// TestRecordsAreNeverReused: a history's records are slots of its chunk,
// and a purged record may still be stood on by a walk or held by a parked
// waiter. Over more than two chunks, with every other record purged as the
// later ones are made, each record is handed out zeroed and its own, and
// keeps what was written to it.
func TestRecordsAreNeverReused(t *testing.T) {
	const n = 2*chunk.Size + 1
	h := newHistory()
	recs := make([]*record, n)
	for i := range recs {
		id := command.ID{Node: 1, Seq: uint64(i + 1)}
		rec := h.ensure(put(1, id.Seq, "k"))
		if rec.status != StatusNone || rec.ts != (timestamp.Timestamp{}) || rec.pred != nil || rec.coord != nil || rec.next != nil {
			t.Fatalf("record %d handed out holding state: %+v", i, *rec)
		}
		if slices.Contains(recs[:i], rec) {
			t.Fatalf("record %d shares a slot with an earlier one", i)
		}
		h.write(rec, StatusStable, ts(id.Seq, 1), []command.ID{{Node: 2, Seq: id.Seq}}, uint32(i), false)
		recs[i] = rec
		if i%2 == 1 {
			h.purge(recs[i-1])
		}
	}
	for i, rec := range recs {
		seq := uint64(i + 1)
		if rec.id() != (command.ID{Node: 1, Seq: seq}) || rec.ts != ts(seq, 1) || rec.status != StatusStable ||
			rec.ballot != uint32(i) || !slices.Equal(rec.pred, []command.ID{{Node: 2, Seq: seq}}) {
			t.Fatalf("record %d now reads %v at %v, status %v, ballot %d, pred %v", i, rec.id(), rec.ts, rec.status, rec.ballot, rec.pred)
		}
	}
}

// TestCoordinatorsAreNeverReused: the coordinators a replica leads its
// commands with are slots of its chunk. Over more than two chunks of
// submissions, each coordinator is its own and reads, after the later
// ones were made, exactly as it did when its command was proposed.
func TestCoordinatorsAreNeverReused(t *testing.T) {
	const n = 2*chunk.Size + 1
	r, ep := testReplica(5)
	coords := make([]*coordinator, n)
	wants := make([]coordinator, n)
	for i := range coords {
		r.onSubmit(command.Put(fmt.Sprintf("k%d", i), nil), nil)
		ep.clear()
		rec := r.hist.get(command.ID{Node: 5, Seq: uint64(i + 1)})
		if rec == nil || rec.coord == nil {
			t.Fatalf("submission %d left no coordinator", i)
		}
		c := rec.coord
		if slices.Contains(coords[:i], c) {
			t.Fatalf("coordinator %d shares a slot with an earlier one", i)
		}
		if c.cmd.Key != fmt.Sprintf("k%d", i) || c.phase != phaseFastProposal {
			t.Fatalf("coordinator %d reads key %q in phase %d", i, c.cmd.Key, c.phase)
		}
		coords[i], wants[i] = c, *c
	}
	for i, c := range coords {
		if !reflect.DeepEqual(*c, wants[i]) {
			t.Fatalf("coordinator %d now reads %+v, was %+v", i, *c, wants[i])
		}
	}
}

// handedChain is a deferred chain that records what it is handed, for the
// test to complete later.
type handedChain struct {
	cmds  []command.Command
	dones []protocol.Completion
}

func (h *handedChain) ApplyDeferred(cmd command.Command, _ timestamp.Timestamp, done protocol.Completion) {
	h.cmds = append(h.cmds, cmd)
	h.dones = append(h.dones, done)
}

// TestDeliveriesAreNeverReused: a command handed to a deferred chain takes
// its completion from the replica's delivery chunk, and the chain may
// complete it long after later deliveries were made, from another
// goroutine, in any order. Over more than two chunks, each completion is
// its own slot, reports its own command to its own client callback, and
// reads, after every completion ran, as it did when it was handed on —
// but for the record and the callback, which its completion dropped.
func TestDeliveriesAreNeverReused(t *testing.T) {
	const n = 2*chunk.Size + 1
	r, _ := testReplica(0)
	chain := &handedChain{}
	setApplier(r, chain)
	got := make([]protocol.Result, n)
	calls := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		c := put(0, uint64(i+1), "k"+strconv.Itoa(i))
		rec := r.hist.ensure(c)
		rec.status, rec.ts = StatusStable, ts(uint64(i+1), 0)
		rec.coord = &coordinator{cmd: c, proposedAt: r.now,
			done: func(res protocol.Result) { got[i] = res; calls[i]++ }}
		r.deliverNow(rec)
	}
	if len(chain.dones) != n {
		t.Fatalf("the chain was handed %d deliveries, want %d", len(chain.dones), n)
	}
	deliveries := make([]*delivery, n)
	wants := make([]delivery, n)
	for i, done := range chain.dones {
		d, ok := done.(*delivery)
		if !ok {
			t.Fatalf("delivery %d completes through a %T, want a *delivery", i, done)
		}
		if slices.Contains(deliveries[:i], d) {
			t.Fatalf("delivery %d shares a slot with an earlier one", i)
		}
		if d.id != chain.cmds[i].ID || d.rec == nil || d.rec.id() != d.id || d.ts != ts(uint64(i+1), 0) {
			t.Fatalf("delivery %d names %v at %v, handed %v", i, d.id, d.ts, chain.cmds[i].ID)
		}
		deliveries[i], wants[i] = d, *d
	}

	// Complete from another goroutine, odd positions last, each half in
	// reverse.
	order := make([]int, 0, n)
	for i := n - 1; i >= 0; i -= 2 {
		order = append(order, i)
	}
	for i := n - 2; i >= 0; i -= 2 {
		order = append(order, i)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, i := range order {
			chain.dones[i].Complete(protocol.Result{Value: []byte(strconv.Itoa(i))})
		}
	}()
	wg.Wait()

	for i, d := range deliveries {
		if calls[i] != 1 || string(got[i].Value) != strconv.Itoa(i) {
			t.Fatalf("client of delivery %d called %d times with %q, want once with %q", i, calls[i], got[i].Value, strconv.Itoa(i))
		}
		if d.r != wants[i].r || d.id != wants[i].id || d.ts != wants[i].ts || !d.proposedAt.Equal(wants[i].proposedAt) {
			t.Fatalf("delivery %d now reads %v at %v, was %v at %v", i, d.id, d.ts, wants[i].id, wants[i].ts)
		}
		if d.rec != nil || d.done != nil {
			t.Fatalf("completed delivery %d still points at its record or callback", i)
		}
	}
}

// fenceProbe is one read fence's completion: it counts how often it fired
// and with what.
type fenceProbe struct {
	fired atomic.Int32
	err   atomic.Value
	wg    *sync.WaitGroup
}

func (p *fenceProbe) Complete(res protocol.Result) {
	if res.Err != nil {
		p.err.Store(res.Err)
	}
	if p.fired.Add(1) == 1 {
		p.wg.Done()
	}
}

// TestFenceEventsAreNeverReused: ReadFence takes its event from the
// replica's chunk under a lock and posts the pointer, and the event loop
// reads it later. Four goroutines each register more than two chunks of
// fences on a running replica, each with a key and a completion of its
// own: every completion fires exactly once, without error.
func TestFenceEventsAreNeverReused(t *testing.T) {
	const readers, per = 4, 2*chunk.Size + 1
	r, _ := testReplica(0)
	r.Start()
	defer r.Stop()
	var wg sync.WaitGroup
	wg.Add(readers * per)
	probes := make([][]*fenceProbe, readers)
	var started sync.WaitGroup
	for g := range probes {
		probes[g] = make([]*fenceProbe, per)
		for i := range probes[g] {
			probes[g][i] = &fenceProbe{wg: &wg}
		}
		started.Add(1)
		go func(g int) {
			defer started.Done()
			for i, p := range probes[g] {
				r.ReadFence([]string{fmt.Sprintf("g%d-%d", g, i)}, r.ReadStamp(), p)
			}
		}(g)
	}
	started.Wait()
	all := make(chan struct{})
	go func() { wg.Wait(); close(all) }()
	select {
	case <-all:
	case <-time.After(10 * time.Second):
	}
	for g := range probes {
		for i, p := range probes[g] {
			if n := p.fired.Load(); n != 1 {
				t.Errorf("fence %d of reader %d fired %d times, want once", i, g, n)
			}
			if err := p.err.Load(); err != nil {
				t.Errorf("fence %d of reader %d failed: %v", i, g, err)
			}
		}
	}
}
