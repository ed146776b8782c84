// Package loopdata exercises loopblock within one package: the handler
// root (the method handed to the runtime as its step), the
// blocking-primitive denylist, channel operations, selects, self-Post —
// through the embedded runtime and on a bare loop — synchronous callbacks,
// and the go-statement and allow-annotation exemptions.
package loopdata

import (
	"os"
	"sync"
	"time"

	"fakeloop"
)

type node struct {
	*fakeloop.Runtime
	loop *fakeloop.Loop
	wg   sync.WaitGroup
	acks chan int
	file *os.File
}

// New hands the runtime the node's step — the walk root, though nothing in
// this package calls it — and its drained hook, which runs off the loop.
func New() *node {
	n := &node{loop: fakeloop.New()}
	n.Runtime = fakeloop.NewRuntime(n.step, n.drained)
	return n
}

// drained runs on Stop's goroutine after the loop has exited: not a root.
func (n *node) drained() {
	n.wg.Wait()
}

func (n *node) step(ev any) {
	switch ev.(type) {
	case int:
		n.persist()
	case string:
		time.Sleep(time.Millisecond) // want `Sleep sleeps on the wall clock on the event loop`
	}
	n.wg.Wait() // want `Wait joins a WaitGroup on the event loop`
	<-n.acks    // want `channel receive blocks the event loop`
	n.acks <- 1 // want `channel send can block the event loop`
	if !n.TryPost(ev) {
		go n.repost(ev)
	}
	n.Post(ev)                // want `blocking Post from the event loop back into itself`
	n.loop.PostMessage(1, ev) // want `blocking Post from the event loop back into itself`
	n.submit(func() {
		n.file.Sync() // want `Sync fsyncs a file on the event loop`
	})
	n.drain()
	n.annotated()
	go func() {
		n.wg.Wait() // off the loop goroutine: fine
	}()
}

// persist is loop-reachable through the handler; the diagnostic lands on
// the blocking site itself.
func (n *node) persist() {
	n.file.Sync() // want `Sync fsyncs a file on the event loop`
}

// submit invokes its callback synchronously, so a literal passed to it
// from the handler is loop-reachable.
func (n *node) submit(cb func()) {
	cb()
}

// drain parks the loop until one of the cases fires.
func (n *node) drain() {
	select { // want `select without a default blocks the event loop`
	case v := <-n.acks:
		_ = v
	case <-n.loop.Stopped():
	}
}

// annotated carries a reviewed suppression.
func (n *node) annotated() {
	//caesarlint:allow loopblock -- inbox capacity is proven larger than in-flight acks
	n.wg.Wait()
}

// repost runs on its own goroutine, where a blocking Post is the correct
// fallback.
func (n *node) repost(ev any) {
	n.Post(ev)
}

// Shutdown is not loop-reachable; blocking here is fine.
func Shutdown(n *node) {
	n.wg.Wait()
	<-n.acks
}
