package shard

import (
	"sync"
	"testing"

	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/transport"
)

// recordingEP keeps every payload sent through it, in order, as a
// transport that holds on to what it was handed (a tcpnet batch awaiting
// its retry, a trace of sent messages) would.
type recordingEP struct {
	mu   sync.Mutex
	sent []any
}

var _ transport.Endpoint = (*recordingEP)(nil)

func (e *recordingEP) Self() timestamp.NodeID         { return 0 }
func (e *recordingEP) Peers() []timestamp.NodeID      { return []timestamp.NodeID{0, 1} }
func (e *recordingEP) Send(_ timestamp.NodeID, p any) { e.record(p) }
func (e *recordingEP) Broadcast(p any)                { e.record(p) }
func (e *recordingEP) SetHandler(transport.Handler)   {}
func (e *recordingEP) Close() error                   { return nil }

func (e *recordingEP) record(p any) {
	e.mu.Lock()
	e.sent = append(e.sent, p)
	e.mu.Unlock()
}

// TestEnvelopesAreNeverReused: envelopes come from chunks, and a slot
// handed to the transport is never written again — a transport may keep
// it long after Send returns. Four goroutines send over more than three
// chunks' worth; every recorded envelope must be its own and still hold
// the shard, generation and payload it was sent with.
func TestEnvelopesAreNeverReused(t *testing.T) {
	const senders, each = 4, 25
	rec := &recordingEP{}
	ep := NewMux(rec, 2).Attach(1, 3)
	type msg struct{ sender, i int }
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if i%2 == 0 {
					ep.Send(1, &msg{s, i})
				} else {
					ep.Broadcast(&msg{s, i})
				}
			}
		}(s)
	}
	wg.Wait()
	if len(rec.sent) != senders*each {
		t.Fatalf("recorded %d envelopes, want %d", len(rec.sent), senders*each)
	}
	seenEnv := make(map[*Envelope]bool)
	seenMsg := make(map[msg]bool)
	next := make([]int, senders)
	for _, p := range rec.sent {
		env := p.(*Envelope)
		if seenEnv[env] {
			t.Fatalf("envelope %p was handed out twice", env)
		}
		seenEnv[env] = true
		m, ok := env.Payload.(*msg)
		if !ok || env.Shard != 1 || env.Gen != 3 {
			t.Fatalf("envelope holds shard %d gen %d payload %#v, want shard 1 gen 3 and a message", env.Shard, env.Gen, env.Payload)
		}
		if seenMsg[*m] {
			t.Fatalf("message %v is in two envelopes", *m)
		}
		seenMsg[*m] = true
		// Each sender's messages were recorded in its send order, so an
		// envelope overwritten by a later send would show up out of turn.
		if m.i != next[m.sender] {
			t.Fatalf("sender %d: envelope holds message %d, want %d", m.sender, m.i, next[m.sender])
		}
		next[m.sender]++
	}
}
