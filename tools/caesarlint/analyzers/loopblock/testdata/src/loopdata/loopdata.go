// Package loopdata exercises loopblock within one package: handler roots
// via method values and literals, the blocking-primitive denylist,
// channel operations, selects, self-Post, synchronous callbacks, and the
// go-statement and allow-annotation exemptions.
package loopdata

import (
	"os"
	"sync"
	"time"

	"fakeloop"
)

type node struct {
	loop *fakeloop.Loop
	wg   sync.WaitGroup
	acks chan int
	file *os.File
}

// Start hands the loop its handler; the Run argument is the walk root
// even though the call sits under a go statement — that goroutine IS the
// loop.
func Start(n *node) {
	go n.loop.Run(n.handle)
}

func (n *node) handle(ev any) {
	switch ev.(type) {
	case int:
		n.persist()
	case string:
		time.Sleep(time.Millisecond) // want `Sleep sleeps on the wall clock on the event loop`
	}
	n.wg.Wait() // want `Wait joins a WaitGroup on the event loop`
	<-n.acks    // want `channel receive blocks the event loop`
	n.acks <- 1 // want `channel send can block the event loop`
	if !n.loop.TryPost(ev) {
		go n.repost(ev)
	}
	n.loop.Post(ev)           // want `blocking Post from the event loop back into itself`
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
	n.loop.Post(ev)
}

// Shutdown is not loop-reachable; blocking here is fine.
func Shutdown(n *node) {
	n.wg.Wait()
	<-n.acks
}
