package protocol

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

func TestLoopProcessesInOrder(t *testing.T) {
	l := NewLoop(16)
	var got []int
	var mu sync.Mutex
	go l.Run(func(ev Event) {
		mu.Lock()
		got = append(got, ev.Payload.(int))
		mu.Unlock()
	})
	for i := 0; i < 100; i++ {
		if !l.Post(i) {
			t.Fatal("post rejected on live loop")
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 100 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d events processed", n)
		}
		time.Sleep(time.Millisecond)
	}
	l.Stop()
	for i, v := range got {
		if v != i {
			t.Fatalf("order violated at %d: %d", i, v)
		}
	}
}

func TestStopDrainsBufferedEvents(t *testing.T) {
	l := NewLoop(64)
	var processed atomic.Int64
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	go l.Run(func(ev Event) {
		if _, ok := ev.Payload.(string); ok {
			started <- struct{}{}
			<-block // hold the loop so the rest stays buffered
			return
		}
		processed.Add(1)
	})
	l.Post("block")
	<-started
	for i := 0; i < 10; i++ {
		l.Post(i)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(block)
	}()
	l.Stop() // must wait for the drain
	if processed.Load() != 10 {
		t.Fatalf("drained %d of 10 buffered events", processed.Load())
	}
}

func TestPostAfterStop(t *testing.T) {
	l := NewLoop(4)
	go l.Run(func(Event) {})
	l.Stop()
	if l.Post("late") {
		t.Fatal("post accepted after stop")
	}
}

func TestStopIdempotent(t *testing.T) {
	l := NewLoop(4)
	go l.Run(func(Event) {})
	l.Stop()
	l.Stop() // must not panic or deadlock
}

func TestApplierFunc(t *testing.T) {
	called := false
	af := ApplierFunc(func(cmd command.Command) []byte {
		called = true
		return []byte("ok")
	})
	if string(af.ApplyAt(command.Put("k", nil), timestamp.Zero)) != "ok" || !called {
		t.Fatal("ApplierFunc adapter broken")
	}
	var got Result
	af.ApplyDeferred(command.Put("k", nil), timestamp.Zero, func(r Result) { got = r })
	if string(got.Value) != "ok" {
		t.Fatal("ApplierFunc did not complete its deferred apply before returning")
	}
}

func TestPostMessageCarriesSender(t *testing.T) {
	l := NewLoop(4)
	got := make(chan Event, 2)
	go l.Run(func(ev Event) { got <- ev })
	defer l.Stop()
	msg := &struct{ n int }{7}
	l.PostMessage(3, msg)
	l.Post("local")
	if ev := <-got; !ev.Remote || ev.From != 3 || ev.Payload != any(msg) {
		t.Fatalf("message arrived as %+v", ev)
	}
	if ev := <-got; ev.Remote || ev.Payload != "local" {
		t.Fatalf("local event arrived as %+v", ev)
	}
}
