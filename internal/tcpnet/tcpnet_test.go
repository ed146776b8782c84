package tcpnet_test

import (
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/caesar"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/kvstore"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/tcpnet"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// freeAddrs reserves n distinct localhost ports.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

// TestListenRejectsSelfOutsideAddrs checks that an ID below zero or past
// the end of the address list is an error, not an index panic.
func TestListenRejectsSelfOutsideAddrs(t *testing.T) {
	addrs := freeAddrs(t, 3)
	for _, self := range []timestamp.NodeID{-1, timestamp.NodeID(len(addrs))} {
		tr, err := tcpnet.Listen(tcpnet.Config{Self: self, Addrs: addrs})
		if err == nil {
			tr.Close()
			t.Fatalf("Listen(Self: %d) over %d addresses succeeded", self, len(addrs))
		}
		if !strings.Contains(err.Error(), "outside address list") {
			t.Fatalf("Listen(Self: %d): %v, want an outside-address-list error", self, err)
		}
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	addrs := freeAddrs(t, 2)
	var trs []*tcpnet.Transport
	recv := make(chan string, 16)
	for i := 0; i < 2; i++ {
		tr, err := tcpnet.Listen(tcpnet.Config{Self: timestamp.NodeID(i), Addrs: addrs})
		if err != nil {
			t.Fatal(err)
		}
		self := i
		tr.SetHandler(func(from timestamp.NodeID, payload any) {
			m, ok := payload.(*caesar.Heartbeat)
			if ok && m != nil {
				recv <- fmt.Sprintf("%d<-%d", self, from)
			}
		})
		trs = append(trs, tr)
		defer tr.Close()
	}
	trs[0].Send(1, &caesar.Heartbeat{})
	trs[1].Send(0, &caesar.Heartbeat{})
	trs[0].Send(0, &caesar.Heartbeat{}) // self loopback
	want := map[string]bool{"1<-0": true, "0<-1": true, "0<-0": true}
	for i := 0; i < 3; i++ {
		select {
		case got := <-recv:
			if !want[got] {
				t.Fatalf("unexpected delivery %s", got)
			}
			delete(want, got)
		case <-time.After(5 * time.Second):
			t.Fatalf("missing deliveries: %v", want)
		}
	}
}

// TestCaesarOverTCP runs a full three-node CAESAR cluster over localhost
// sockets: the complete multi-process code path minus process boundaries.
func TestCaesarOverTCP(t *testing.T) {
	addrs := freeAddrs(t, 3)
	var reps []*caesar.Replica
	var stores []*kvstore.Store
	for i := 0; i < 3; i++ {
		tr, err := tcpnet.Listen(tcpnet.Config{Self: timestamp.NodeID(i), Addrs: addrs})
		if err != nil {
			t.Fatal(err)
		}
		store := kvstore.New()
		rep := caesar.New(tr, protocol.Sync(store), caesar.Config{HeartbeatInterval: -1})
		rep.Start()
		reps = append(reps, rep)
		stores = append(stores, store)
	}
	defer func() {
		for _, r := range reps {
			r.Stop()
		}
	}()

	for i := 0; i < 9; i++ {
		ch := make(chan protocol.Result, 1)
		reps[i%3].Submit(command.Put("k", []byte{byte(i)}), func(res protocol.Result) { ch <- res })
		select {
		case res := <-ch:
			if res.Err != nil {
				t.Fatalf("put %d: %v", i, res.Err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("put %d timed out", i)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for _, s := range stores {
			if v, _ := s.Get("k"); len(v) != 1 || v[0] != 8 {
				all = false
			}
		}
		if all {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("replicas did not converge over TCP")
}
