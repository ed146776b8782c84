// Package leakcheck fails a test binary whose goroutines outlive its
// tests. Every layer of the node stack owns goroutines with an explicit
// join on Stop — each engine's event loop, the WAL syncer, the node's
// maintenance loop — so any
// goroutine still alive after the package's tests have run is a shutdown
// bug: a missed join that in production leaks loops on every restart
// and, under the fake-clock harness, leaves a goroutine reading a clock
// nothing advances.
//
// Wire it in one line per package:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// The check is dependency-free (runtime.Stack only). Shutdown is allowed
// to finish asynchronously: the snapshot is retried until the goroutine
// set is stable-clean or the grace window expires, so a Stop that joins
// its last goroutine a few milliseconds after m.Run returns does not
// flake.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// grace is how long shutdown stragglers have to exit before the check
// reports them as leaks.
const grace = 5 * time.Second

// Main runs the package's tests and then the leak check, exiting with a
// failure code if either fails. Intended as the whole body of TestMain.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if err := Check(grace); err != nil {
			fmt.Fprintf(os.Stderr, "leakcheck: %v\n", err)
			code = 1
		}
	}
	os.Exit(code)
}

// Check polls the goroutine set until no unexpected goroutine remains or
// the deadline passes, returning an error describing the survivors.
func Check(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	backoff := time.Millisecond
	for {
		leaked := leakedGoroutines()
		if len(leaked) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutine(s) still running %v after the tests finished:\n\n%s",
				len(leaked), timeout, strings.Join(leaked, "\n\n"))
		}
		time.Sleep(backoff)
		if backoff < 100*time.Millisecond {
			backoff *= 2
		}
	}
}

// benign marks goroutines that are part of the runtime or the testing
// harness rather than code under test; a stack containing any of these
// substrings is never a leak.
var benign = []string{
	"leakcheck.Check(", // the polling goroutine's own frames
	"leakcheck.Main(",
	"testing.Main(", // the test binary's main
	"testing.(*M).", // m.Run machinery
	"testing.runTests",
	"testing.(*T).Run(",      // parent test waiting on subtests
	"testing.(*T).Parallel(", // parked parallel siblings
	"runtime.forcegchelper",  // runtime housekeeping, below here
	"runtime.bgsweep",
	"runtime.bgscavenge",
	"runtime.gcBgMarkWorker",
	"runtime.runfinq",
	"runtime.ReadTrace",
	"os/signal.signal_recv",
	"os/signal.loop",
}

// leakedGoroutines snapshots every goroutine stack and filters the
// expected ones.
func leakedGoroutines() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var leaked []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		g = strings.TrimSpace(g)
		if g == "" || isBenign(g) {
			continue
		}
		leaked = append(leaked, g)
	}
	return leaked
}

func isBenign(stack string) bool {
	for _, marker := range benign {
		if strings.Contains(stack, marker) {
			return true
		}
	}
	return false
}
