package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"github.com/caesar-consensus/caesar/internal/batch"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/protocol"
)

// The load generator is sized for a two-core sandbox: ONE pacing
// goroutine issues every operation, local reads run on a fixed pool of
// GOMAXPROCS reader goroutines fed by a queue, and nothing else runs on
// the rig's side. Operations enter a node exactly where the server's
// handleClient enters it: Engine.Submit for writes, batch.Pack + Submit
// for multi-key transactions, Reads.Read for reads.

type phaseID uint8

const (
	phSetup phaseID = iota
	phWarm
	phRate
	phSat
	phCrash
	numPhases
)

// Operation outcomes.
const (
	stPending uint32 = iota
	stOK
	stFailed
	stStopped // failed with protocol.ErrStopped: in doubt when its node was crashed
	stRefused // not submitted: the window stayed full until the operation had been due for opTimeout
)

// opRec is one operation's record. It holds no pointers, so the table
// costs the collector nothing to scan.
type opRec struct {
	due    int64 // ns since the run's epoch: when the op was due (open loop) or issued (closed loop)
	issued int64 // when the pacing goroutine handed it to the node
	ack    atomic.Int64
	status atomic.Uint32
	got    int64 // reads: index of the operation whose value came back; -1 absent, -2 not a rig value
	key    int32
	key2   int32
	node   uint8
	kind   opKind
	phase  phaseID
}

func (r *opRec) latency() time.Duration { return time.Duration(r.ack.Load() - r.due) }

// ok reports an operation that completed successfully within the timeout.
func (r *opRec) ok() bool { return r.status.Load() == stOK && r.latency() <= opTimeout }

// opTable stores the records in fixed chunks, so completion callbacks can
// hold a record's address while the pacing goroutine keeps appending.
type opTable struct {
	chunks [][]opRec
	n      int64
}

const opChunk = 1 << 16

func (t *opTable) add() (int64, *opRec) {
	if int(t.n)%opChunk == 0 {
		t.chunks = append(t.chunks, make([]opRec, opChunk))
	}
	i := t.n
	t.n++
	return i, t.at(i)
}

// megabytes is the heap the table's chunks occupy.
func (t *opTable) megabytes() float64 {
	return float64(len(t.chunks)) * opChunk * float64(unsafe.Sizeof(opRec{})) / (1 << 20)
}

func (t *opTable) at(i int64) *opRec { return &t.chunks[i/opChunk][i%opChunk] }

// each visits every record in issue order.
func (t *opTable) each(fn func(i int64, r *opRec)) {
	for i := int64(0); i < t.n; i++ {
		fn(i, t.at(i))
	}
}

// sliceMark is a sample of the clock, the process CPU clock and the
// phase's completion count, taken by the pacing goroutine about once per
// slice; consecutive marks bound one slice.
type sliceMark struct {
	t    int64
	cpu  time.Duration
	done int64
}

type loadgen struct {
	c     *cluster
	ks    *keyspace
	gen   *generator
	epoch time.Time
	tab   opTable

	outstanding atomic.Int64
	completed   [numPhases]atomic.Int64
	closedPhase atomic.Int32 // phase whose completions feed tokens; -1 outside closed loops
	tokens      chan struct{}

	readQ   chan *opRec
	readers sync.WaitGroup
	readCtx context.Context
	cancel  context.CancelFunc

	marks      [numPhases][]sliceMark
	phaseStart [numPhases]int64
	maxLate    [numPhases]int64
	frozen     int64 // the longest the pacing goroutine overslept, ns
	crashed    int   // the crashed node; -1 if none

	errMu sync.Mutex
	errs  []string // the first few operation errors, for the report
}

func newLoadgen(c *cluster, ks *keyspace, gen *generator) *loadgen {
	l := &loadgen{
		c: c, ks: ks, gen: gen, epoch: time.Now(), crashed: -1,
		// One token per completion of the closed loop's window.
		tokens: make(chan struct{}, preloadWindow),
		// Sized to the window, so the pacing goroutine never blocks
		// handing a read to the pool.
		readQ: make(chan *opRec, issueWindow),
	}
	l.closedPhase.Store(-1)
	l.readCtx, l.cancel = context.WithCancel(context.Background())
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		l.readers.Add(1)
		go l.reader()
	}
	return l
}

// close stops the reader pool.
func (l *loadgen) close() {
	l.cancel()
	close(l.readQ)
	l.readers.Wait()
}

func (l *loadgen) now() int64 { return int64(time.Since(l.epoch)) }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mark samples a slice boundary if one is due (or force is set).
func (l *loadgen) mark(ph phaseID, force bool) {
	now := l.now()
	ms := l.marks[ph]
	if !force && len(ms) > 0 && now-ms[len(ms)-1].t < int64(sliceLen) {
		return
	}
	l.marks[ph] = append(ms, sliceMark{t: now, cpu: cpuTime(), done: l.completed[ph].Load()})
}

func (l *loadgen) reader() {
	defer l.readers.Done()
	for rec := range l.readQ {
		val, present, err := l.c.stacks[rec.node].Reads.Read(l.readCtx, l.ks.keys[rec.key])
		switch {
		case err != nil:
		case !present:
			rec.got = -1
		default:
			if _, seq, ok := decodeValue(val); ok {
				rec.got = seq
			} else {
				rec.got = -2
			}
		}
		l.complete(rec, err)
	}
}

// awaitSlot holds the pacing goroutine while issueWindow operations are
// outstanding, as a client library with a bounded connection pool queues
// what it cannot send: the wait counts, because operations are timed from
// their due time. It gives up — the operation is refused, a failure —
// once the operation has been due for opTimeout. Without the window, a
// schedule that fell behind (the sandbox's host can freeze the process for
// a second) released its whole backlog into the nodes at once, and
// thousands of simultaneous submissions wedge this program for good: every
// event loop blocks in tcpnet.Send on a peer whose inbox is full (README,
// "Findings at the baseline").
func (l *loadgen) awaitSlot(due int64) bool {
	for l.outstanding.Load() >= issueWindow {
		if l.now()-due > int64(opTimeout) {
			return false
		}
		time.Sleep(100 * time.Microsecond)
	}
	return true
}

// issue hands one operation to its node, once the window has a slot. It
// never blocks on the node itself: Submit is asynchronous and the read
// queue is as deep as the window.
func (l *loadgen) issue(op genOp, due int64, ph phaseID) *opRec {
	idx, rec := l.tab.add()
	rec.due = due
	rec.key, rec.key2 = op.key, op.key2
	rec.node, rec.kind, rec.phase = uint8(op.node), op.kind, ph
	slot := l.awaitSlot(due)
	rec.issued = l.now()
	if !slot {
		rec.status.Store(stRefused)
		rec.ack.Store(rec.issued)
		return rec
	}
	l.outstanding.Add(1)
	done := func(res protocol.Result) { l.complete(rec, res.Err) }
	eng := l.c.stacks[op.node].Engine
	switch op.kind {
	case opPut:
		eng.Submit(command.Put(l.ks.keys[op.key], opValue(op.node, idx)), done)
	case opTx:
		v := opValue(op.node, idx)
		cmd, err := batch.Pack([]command.Command{
			command.Put(l.ks.keys[op.key], v),
			command.Put(l.ks.keys[op.key2], v),
		})
		if err != nil {
			l.complete(rec, err)
			break
		}
		eng.Submit(cmd, done)
	case opRead:
		l.readQ <- rec
	}
	return rec
}

// complete records an operation's outcome. It runs on node event loops
// and reader goroutines and must not block.
func (l *loadgen) complete(rec *opRec, err error) {
	st := stOK
	switch {
	case errors.Is(err, protocol.ErrStopped):
		st = stStopped
	case err != nil:
		st = stFailed
		l.errMu.Lock()
		if len(l.errs) < maxViolations {
			l.errs = append(l.errs, fmt.Sprintf("%s of %q at node %d in phase %d: %v", rec.kind, l.ks.keys[rec.key], rec.node, rec.phase, err))
		}
		l.errMu.Unlock()
	}
	rec.status.Store(st)
	rec.ack.Store(l.now())
	l.outstanding.Add(-1)
	if st == stOK {
		l.completed[rec.phase].Add(1)
	}
	if int32(rec.phase) == l.closedPhase.Load() {
		select {
		case l.tokens <- struct{}{}:
		default:
		}
	}
}

// drain waits until nothing is outstanding, or the operation timeout.
func (l *loadgen) drain() {
	deadline := time.Now().Add(opTimeout)
	for l.outstanding.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// openLoop issues operations on a fixed schedule for dur, whatever the
// nodes do with them; each is timed from the instant it was due, so a
// stall charges its delay to every operation scheduled behind it. hook,
// if set, runs on the pacing goroutine before the i-th operation.
func (l *loadgen) openLoop(ph phaseID, rate int, dur time.Duration, hook func(i int)) {
	start := l.now()
	l.phaseStart[ph] = start
	l.mark(ph, true)
	interval := float64(time.Second) / float64(rate)
	n := int(float64(dur) / interval)
	for i := 0; i < n; i++ {
		due := start + int64(float64(i)*interval)
		slept := false
		for now := l.now(); now < due; now = l.now() {
			time.Sleep(time.Duration(due - now))
			slept = true
		}
		late := l.now() - due
		if late > l.maxLate[ph] {
			l.maxLate[ph] = late
		}
		// Waking long after the sleep should have ended is the host's
		// doing (a frozen or starved sandbox), not the program's.
		if slept && late > l.frozen {
			l.frozen = late
		}
		if hook != nil {
			hook(i)
		}
		l.issue(l.gen.next(), due, ph)
		l.mark(ph, false)
	}
	if rest := start + int64(dur) - l.now(); rest > 0 {
		time.Sleep(time.Duration(rest))
	}
	l.mark(ph, true)
}

// closedLoop keeps up to inflight operations outstanding: the next one is
// issued only when an earlier one completes. It returns when next runs
// dry or, with dur > 0, when the window closes; stragglers are left to
// drain.
func (l *loadgen) closedLoop(ph phaseID, inflight int, dur time.Duration, next func() (genOp, bool)) {
	for len(l.tokens) > 0 {
		<-l.tokens
	}
	l.closedPhase.Store(int32(ph))
	defer l.closedPhase.Store(-1)
	start := l.now()
	l.phaseStart[ph] = start
	l.mark(ph, true)
	var windowEnd <-chan time.Time
	if dur > 0 {
		t := time.NewTimer(dur)
		defer t.Stop()
		windowEnd = t.C
	}
	active := 0
	issueNext := func() bool {
		now := l.now()
		if dur > 0 && now-start >= int64(dur) {
			return false
		}
		op, ok := next()
		if !ok {
			return false
		}
		l.issue(op, now, ph)
		active++
		return true
	}
	more := true
	for more && active < inflight {
		more = issueNext()
	}
	stall := time.NewTimer(opTimeout)
	defer stall.Stop()
loop:
	for more || (dur == 0 && active > 0) {
		select {
		case <-l.tokens:
			active--
			l.mark(ph, false)
			if more {
				more = issueNext()
			}
			if !stall.Stop() {
				select {
				case <-stall.C:
				default:
				}
			}
			stall.Reset(opTimeout)
		case <-windowEnd:
			break loop
		case <-stall.C:
			// Nothing completed for a whole operation timeout: whatever
			// is still out has failed.
			break loop
		}
	}
	l.mark(ph, true)
}

// fromGen adapts the generator to closedLoop's next.
func (l *loadgen) fromGen() (genOp, bool) { return l.gen.next(), true }

// injectCrash kills node on the pacing goroutine, mid-schedule.
func (l *loadgen) injectCrash(node int) {
	l.crashed = node
	l.gen.dropNode(node)
	l.c.crash(node)
}

// inDoubt reports an operation that failed because its node was crashed
// under it: its outcome is unknown to the client, by construction of the
// fault, so it counts neither as acknowledged nor as a failure.
func (l *loadgen) inDoubt(r *opRec) bool {
	return r.status.Load() == stStopped && int(r.node) == l.crashed
}

// totals counts attempted, failed and in-doubt operations over the run.
// Failed covers errors, refusals, and operations not acknowledged within
// the timeout.
func (l *loadgen) totals() (attempted, failed, doubt int64) {
	l.tab.each(func(_ int64, r *opRec) {
		attempted++
		switch {
		case l.inDoubt(r):
			doubt++
		case !r.ok():
			failed++
		}
	})
	return
}

// sliceStats reduces one phase to numbers a busy neighbour moves little.
// Latencies are quiet-window percentiles (see quietPercentiles); rates and
// CPU are medians over one-second slices.
type sliceStats struct {
	n        map[opKind]int     // successful operations by kind
	p50, p90 map[opKind]float64 // ms, quiet-window percentiles
	opsPerS  float64
	cpuPerOp float64 // us
}

func (l *loadgen) sliceStats(ph phaseID) sliceStats {
	st := sliceStats{n: map[opKind]int{}, p50: map[opKind]float64{}, p90: map[opKind]float64{}}
	byKind := map[opKind][]float64{} // in due order: the pacing goroutine issues in that order
	l.tab.each(func(_ int64, r *opRec) {
		if r.phase == ph && r.ok() {
			byKind[r.kind] = append(byKind[r.kind], ms(r.latency()))
		}
	})
	for kind, lat := range byKind {
		st.n[kind] = len(lat)
		st.p50[kind], st.p90[kind] = quietPercentiles(lat)
	}
	var rates, cpus []float64
	marks := l.marks[ph]
	for i := 1; i < len(marks); i++ {
		a, b := marks[i-1], marks[i]
		dt, dn := b.t-a.t, b.done-a.done
		if dt < int64(sliceLen)/2 || dn == 0 {
			continue // a stub left by the window's end
		}
		rates = append(rates, float64(dn)/time.Duration(dt).Seconds())
		cpus = append(cpus, float64((b.cpu-a.cpu).Microseconds())/float64(dn))
	}
	st.opsPerS, st.cpuPerOp = median(rates), median(cpus)
	return st
}

// total is the number of successful operations of every kind.
func (st sliceStats) total() int {
	sum := 0
	for _, n := range st.n {
		sum += n
	}
	return sum
}

// latencies returns the sorted latencies (ms) of a phase's successful
// operations of one kind.
func (l *loadgen) latencies(ph phaseID, kind opKind) []float64 {
	var out []float64
	l.tab.each(func(_ int64, r *opRec) {
		if r.phase == ph && r.kind == kind && r.ok() {
			out = append(out, ms(r.latency()))
		}
	})
	sort.Float64s(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile reads q from sorted values (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quietPercentiles reduces latencies, given in the order the operations
// were due, to the p50 and p90 of the run's quiet moments. The sandbox is a
// few cores of a shared host: a neighbour's burst of CPU or disk traffic
// adds to every latency it overlaps and never subtracts, so the median
// over a whole run — and the median over one-second slices — moved by 10
// to 50% between runs of the same code, where the values of the least
// disturbed windows repeated within a few percent. The operations are cut
// into windows of quietWindowOps consecutive ones (50 to 200 ms of the
// schedule), each window gives its p50 and p90, and the result is the
// value at quietShare of the sorted windows: what the program does when
// the host leaves it alone. A change that slows every operation moves it
// one for one; a change that adds rare stalls shows in the per-layer tail
// metrics, not here.
func quietPercentiles(lat []float64) (p50, p90 float64) {
	var p50s, p90s []float64
	for i := 0; i < len(lat); i += quietWindowOps {
		end := i + quietWindowOps
		if end > len(lat) {
			if i > 0 {
				break // a stub of a window at the phase's end
			}
			end = len(lat)
		}
		w := append([]float64(nil), lat[i:end]...)
		sort.Float64s(w)
		p50s = append(p50s, quantile(w, 0.50))
		p90s = append(p90s, quantile(w, 0.90))
	}
	sort.Float64s(p50s)
	sort.Float64s(p90s)
	return quantile(p50s, quietShare), quantile(p90s, quietShare)
}

// tailQuantile is the highest percentile with at least ten samples
// beyond it, and that percentile's value.
func tailQuantile(sorted []float64) (q, v float64) {
	n := len(sorted)
	if n <= 10 {
		return 0, 0
	}
	return float64(n-10) / float64(n), sorted[n-11]
}

// failures describes what failed, for the report: the first few errors
// and how many operations were refused or never acknowledged in time.
func (l *loadgen) failures() []string {
	l.errMu.Lock()
	out := append([]string(nil), l.errs...)
	l.errMu.Unlock()
	var refused, late int
	l.tab.each(func(_ int64, r *opRec) {
		switch st := r.status.Load(); {
		case st == stRefused:
			refused++
		case st == stPending || (st == stOK && r.latency() > opTimeout):
			late++
		}
	})
	if refused > 0 {
		out = append(out, fmt.Sprintf("%d operations refused: %d stayed outstanding for %v", refused, issueWindow, opTimeout))
	}
	if late > 0 {
		out = append(out, fmt.Sprintf("%d operations not acknowledged within %v", late, opTimeout))
	}
	return out
}
