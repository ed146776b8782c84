// Package loopuser is the caller side of the cross-package loopblock
// test: its handler calls loopio functions whose blocking nature is only
// knowable from the facts loopio exported.
package loopuser

import (
	"os"

	"fakeloop"
	"loopio"
)

type svc struct {
	*fakeloop.Runtime
	file *os.File
	ch   chan int
}

// New roots the walk at s.step.
func New(s *svc) {
	s.Runtime = fakeloop.NewRuntime(s.step, func() {})
}

func (s *svc) step(ev any) {
	loopio.Flush(s.file)    // want `call to Flush on the event loop blocks: it fsyncs a file`
	loopio.Enqueue(s.ch, 1) // want `call to Enqueue on the event loop blocks: it sends on a channel`
	loopio.Persist(s.file)  // want `call to Persist on the event loop blocks: it calls Flush`
	if v, ok := loopio.Peek(s.ch); ok {
		_ = v
	}
}
