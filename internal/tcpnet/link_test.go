package tcpnet_test

import (
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/caesar"
	"github.com/caesar-consensus/caesar/internal/chunk"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/shard"
	"github.com/caesar-consensus/caesar/internal/tcpnet"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/wire"
)

// pair starts two connected transports; the second listens on bAddr and
// delivers into recv.
func pair(t *testing.T, recv func(from timestamp.NodeID, payload any)) (a, b *tcpnet.Transport, bAddr string) {
	t.Helper()
	addrs := freeAddrs(t, 2)
	var trs [2]*tcpnet.Transport
	for i := range trs {
		tr, err := tcpnet.Listen(tcpnet.Config{Self: timestamp.NodeID(i), Addrs: addrs, DialRetry: 20 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		trs[i] = tr
	}
	trs[0].SetHandler(func(timestamp.NodeID, any) {})
	trs[1].SetHandler(recv)
	return trs[0], trs[1], addrs[1]
}

// eventually polls cond until it holds or the deadline passes.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

type byteCounter struct{ n int64 }

func (c *byteCounter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// TestBurstIsOrderedAndCountedExactly queues far more than one batch
// before the link can drain it: every message must arrive once, in send
// order, and both ends must count exactly the frames' bytes — coalescing
// changes how many writes carry the stream, not what the counters say.
func TestBurstIsOrderedAndCountedExactly(t *testing.T) {
	const n = 2000
	next := uint32(0)
	done := make(chan struct{})
	a, b, _ := pair(t, func(from timestamp.NodeID, payload any) {
		m, ok := payload.(*caesar.Recover)
		if !ok || from != 0 || m.Ballot != next {
			t.Errorf("message %d arrived as %#v from %d", next, payload, from)
		}
		if next++; next == n {
			close(done)
		}
	})
	var frames byteCounter
	enc := wire.NewEncoder(&frames)
	for i := uint32(0); i < n; i++ {
		msg := &caesar.Recover{Ballot: i}
		if err := enc.Encode(&wire.Envelope{From: 0, Payload: msg}); err != nil {
			t.Fatal(err)
		}
		a.Send(1, msg)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%d of %d messages arrived", next, n)
	}
	eventually(t, "the sender's counters", func() bool { return a.PeerStats(1).SentMsgs == n })
	sent, recv := a.PeerStats(1), b.PeerStats(0)
	if sent.SentBytes != frames.n || recv.RecvBytes != frames.n || recv.RecvMsgs != n {
		t.Fatalf("%d frames of %d bytes: sender counted %+v, receiver %+v", n, frames.n, sent, recv)
	}
}

// TestUnframeableMessageIsDropped: a payload the codec has no tag for must
// cost the link that one message, not wedge it in a reconnect loop.
func TestUnframeableMessageIsDropped(t *testing.T) {
	got := make(chan any, 2)
	a, _, _ := pair(t, func(_ timestamp.NodeID, payload any) { got <- payload })
	a.Send(1, "no tag for a string")
	a.Send(-1, &caesar.Heartbeat{}) // nor a peer -1: dropped, not a panic
	a.Send(2, &caesar.Heartbeat{})
	a.Send(1, &caesar.Heartbeat{})
	select {
	case payload := <-got:
		if _, ok := payload.(*caesar.Heartbeat); !ok {
			t.Fatalf("delivered %#v", payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the message behind the unframeable one never arrived")
	}
	eventually(t, "the sender's counters", func() bool { return a.PeerStats(1).SentMsgs == 1 })
}

// TestInboundConnectionLeavesNothingBehind: a peer that reconnects again
// and again (or a port scanner) must not cost a goroutine per visit for
// the life of the transport.
func TestInboundConnectionLeavesNothingBehind(t *testing.T) {
	_, b, bAddr := pair(t, func(timestamp.NodeID, any) {})
	before := runtime.NumGoroutine() // links dial on first use: nothing is connected yet
	for i := 0; i < 20; i++ {
		conn, err := net.Dial("tcp", bAddr)
		if err != nil {
			t.Fatal(err)
		}
		eventually(t, "the visit to be accepted", func() bool { return b.OpenConns() == 1 })
		conn.Close()
		eventually(t, "the visit to end", func() bool { return b.OpenConns() == 0 })
	}
	eventually(t, "the visits' goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
}

// TestGarbageClosesTheConnection: bytes that are not a frame end that
// connection — the transport stays up for everyone else.
func TestGarbageClosesTheConnection(t *testing.T) {
	got := make(chan struct{}, 1)
	a, _, bAddr := pair(t, func(timestamp.NodeID, any) { got <- struct{}{} })
	conn, err := net.Dial("tcp", bAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after garbage = %v, want the connection closed (io.EOF)", err)
	}
	a.Send(1, &caesar.Heartbeat{})
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("healthy link stopped delivering")
	}
}

// TestReceivedMessagesAreNeverReused: the link's decoder fills chunk slots
// on the read goroutine while the receiver's loop still reads messages it
// was handed earlier. A slot written twice would change a kept message
// under the loop's feet (and, under -race, be reported as a race).
func TestReceivedMessagesAreNeverReused(t *testing.T) {
	const n = 4 * (2*chunk.Size + 1)
	msg := func(i int) any {
		id := command.ID{Node: 0, Seq: uint64(i + 1)}
		at := timestamp.Timestamp{Seq: uint64(i + 1)}
		pred := []command.ID{{Node: 1, Seq: uint64(i)}}
		switch i % 4 {
		case 0:
			cmd := command.Put(fmt.Sprintf("k%d", i), []byte{byte(i)})
			cmd.ID = id
			return &caesar.FastPropose{Ballot: uint32(i), Cmd: cmd, Time: at}
		case 1:
			return &caesar.FastProposeReply{Ballot: uint32(i), CmdID: id, Time: at, Pred: pred}
		case 2:
			return &caesar.Stable{Ballot: uint32(i), Cmd: command.Command{ID: id}, Time: at, Pred: pred}
		default:
			return &shard.Envelope{Shard: 1, Gen: int32(i), Payload: &caesar.FastProposeReply{Ballot: uint32(i), CmdID: id}}
		}
	}
	// Buffered for every message, so the read goroutine never waits on the
	// loop and keeps decoding while the loop re-reads.
	inbox := make(chan any, n)
	a, _, _ := pair(t, func(_ timestamp.NodeID, payload any) { inbox <- payload })
	go func() {
		for i := 0; i < n; i++ {
			a.Send(1, msg(i))
		}
	}()
	var kept []any
	for len(kept) < n {
		select {
		case m := <-inbox:
			kept = append(kept, m)
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d messages arrived", len(kept), n)
		}
		for i, m := range kept {
			if want := msg(i); !reflect.DeepEqual(m, want) {
				t.Fatalf("message %d, read after %d arrived: %#v, sent %#v", i, len(kept), m, want)
			}
		}
	}
}
