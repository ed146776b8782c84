package wal

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/flight"
	"github.com/caesar-consensus/caesar/internal/kvstore"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/xshard"
)

// addCmd is the i-th increment of "ctr" by node.
func addCmd(node timestamp.NodeID, i int) (command.Command, timestamp.Timestamp) {
	cmd := command.Add("ctr", 1)
	cmd.ID = command.ID{Node: node, Seq: uint64(i)}
	return cmd, timestamp.Timestamp{Seq: uint64(i), Node: node}
}

// stallSync makes l's batch fsync wait for release and count itself.
func stallSync(l *Log) (release chan struct{}, syncs *atomic.Int64) {
	release, syncs = make(chan struct{}), new(atomic.Int64)
	l.syncHook = func(f *os.File) error {
		<-release
		syncs.Add(1)
		return f.Sync()
	}
	return release, syncs
}

// TestDeferredAppendsShareSyncs: the appender is never parked on the
// disk, nothing completes before its sync, one sync covers everything
// appended while the previous one ran, and completions keep append order.
func TestDeferredAppendsShareSyncs(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir(), Options{})
	release, syncs := stallSync(l)
	store := kvstore.New()
	app := l.GroupApplier(0, store)

	const n = 32
	var (
		mu    sync.Mutex
		order []uint64
		wg    sync.WaitGroup
	)
	wg.Add(n)
	appended := make(chan struct{})
	go func() {
		defer close(appended)
		for i := 1; i <= n; i++ {
			cmd, ts := addCmd(1, i)
			app.ApplyDeferred(cmd, ts, func(res protocol.Result) {
				if res.Err != nil {
					t.Errorf("command %v: %v", cmd.ID, res.Err)
				}
				mu.Lock()
				order = append(order, cmd.ID.Seq)
				mu.Unlock()
				wg.Done()
			})
		}
	}()
	select {
	case <-appended:
	case <-time.After(10 * time.Second):
		t.Fatal("ApplyDeferred blocked on a stalled disk")
	}
	if st := l.Stats(); st.Pending != n {
		t.Errorf("Stats().Pending = %d with the disk stalled, want %d", st.Pending, n)
	}
	mu.Lock()
	early := len(order)
	mu.Unlock()
	if early != 0 || store.Applied() != 0 {
		t.Fatalf("%d completion(s), %d apply(s) before any sync returned", early, store.Applied())
	}
	close(release)
	wg.Wait()
	if got := syncs.Load(); got > 2 {
		t.Errorf("%d syncs for %d records appended during one stalled sync, want <= 2", got, n)
	}
	for i, seq := range order {
		if seq != uint64(i+1) {
			t.Fatalf("completion order %v is not append order", order)
		}
	}
	l.Close() // the pass that fired the last completion has returned
	if st := l.Stats(); st.Pending != 0 || st.OldestPending != 0 {
		t.Errorf("idle log reports %d pending, oldest %v", st.Pending, st.OldestPending)
	}
}

// TestAcknowledgedIsDurable checks acknowledged = durable against the
// strictest disk: at every acknowledgement it records how much of the
// segment the last fsync covered, and a crash image cut there — every
// byte written after that sync discarded — must still replay every
// command acknowledged so far, exactly once.
func TestAcknowledgedIsDurable(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	var synced atomic.Int64
	l.syncHook = func(f *os.File) error {
		if err := f.Sync(); err != nil {
			return err
		}
		fi, err := f.Stat()
		synced.Store(fi.Size())
		return err
	}
	app := l.GroupApplier(0, kvstore.New())

	type ack struct {
		seq    uint64
		synced int64
	}
	var acks []ack
	const rounds, burst = 12, 9
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		wg.Add(burst)
		for i := 1; i <= burst; i++ {
			cmd, ts := addCmd(1, r*burst+i)
			app.ApplyDeferred(cmd, ts, func(res protocol.Result) {
				if res.Err != nil {
					t.Errorf("command %v: %v", cmd.ID, res.Err)
				}
				acks = append(acks, ack{cmd.ID.Seq, synced.Load()})
				wg.Done()
			})
		}
		wg.Wait()
	}
	seg := filepath.Join(dir, segName(0))
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()

	for i, a := range acks {
		if i+1 < len(acks) && acks[i+1].synced == a.synced {
			continue // one image per distinct sync
		}
		img := t.TempDir()
		if err := os.WriteFile(filepath.Join(img, segName(0)), raw[:a.synced], 0o644); err != nil {
			t.Fatal(err)
		}
		_, st := mustOpen(t, img, Options{})
		for _, b := range acks[:i+1] {
			if !st.Delivered[0].Has(command.ID{Node: 1, Seq: b.seq}) {
				t.Fatalf("command %d was acknowledged with %d bytes synced, but a log cut there lost it", b.seq, a.synced)
			}
		}
		// Increments: present exactly once means the counter equals the
		// number of records replayed, and nothing acknowledged is missing.
		if got := int64(binary.BigEndian.Uint64(st.KV["ctr"])); got != st.Applied || got < int64(i+1) {
			t.Fatalf("image at %d bytes: ctr %d, applied %d, acknowledged %d", a.synced, got, st.Applied, i+1)
		}
	}
}

// txEvery wraps a store so that every n-th command it applies also
// executes a transaction through the log, from inside the completion —
// the commit table's nesting.
type txEvery struct {
	*kvstore.Store
	l    *Log
	n    int64
	seen atomic.Int64
	txs  sync.WaitGroup
}

func (a *txEvery) ApplyAt(cmd command.Command, ts timestamp.Timestamp) []byte {
	v := a.Store.ApplyAt(cmd, ts)
	if seen := a.seen.Add(1); seen%a.n == 0 {
		ops := []command.Command{command.Add("ctr", 1), command.Add("txs", 1)}
		a.txs.Add(1)
		a.l.LogTx(xshard.XID{Node: 9, Seq: uint64(seen)}, ts, ops,
			func() { a.Store.ApplyAllAt(ops, ts) },
			func(error) { a.txs.Done() })
	}
	return v
}

// TestDeferredAppendSnapshotCut is TestConcurrentAppendSnapshotCut for the
// pipeline: deferred appends from several goroutines, transaction records
// nested in their completions, snapshots cutting the stream — the
// recovered store must equal the live one, every increment counted once.
func TestDeferredAppendSnapshotCut(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{SegmentSize: 4 << 10, SnapshotBytes: 8 << 10})
	store := kvstore.New()
	inner := &txEvery{Store: store, l: l, n: 7}
	const writers, each = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			app := l.GroupApplier(w%2, inner)
			var acked sync.WaitGroup
			acked.Add(each)
			for i := 1; i <= each; i++ {
				cmd, ts := addCmd(timestamp.NodeID(w), i)
				app.ApplyDeferred(cmd, ts, func(res protocol.Result) {
					if res.Err != nil {
						t.Errorf("command %v: %v", cmd.ID, res.Err)
					}
					acked.Done()
				})
			}
			acked.Wait()
		}(w)
	}
	stop, snapDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(snapDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := l.MaybeSnapshot(func() (map[string][]byte, int64) {
				return store.Export(nil), store.Applied()
			}); err != nil {
				t.Errorf("MaybeSnapshot: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-snapDone
	inner.txs.Wait()
	l.Close()
	if _, snaps, _ := scanDir(dir); len(snaps) == 0 {
		t.Fatal("no snapshot cut the stream")
	}

	_, st := mustOpen(t, dir, Options{})
	const cmds = writers * each
	want := int64(cmds + cmds/7)
	if got := int64(binary.BigEndian.Uint64(st.KV["ctr"])); got != want {
		t.Errorf("ctr = %d, want %d", got, want)
	}
	if got := int64(binary.BigEndian.Uint64(st.KV["txs"])); got != cmds/7 {
		t.Errorf("txs = %d, want %d", got, cmds/7)
	}
	if st.Applied != store.Applied() {
		t.Errorf("replayed Applied = %d, the live store stopped at %d", st.Applied, store.Applied())
	}
	if st.Settled.Len() != cmds/7 {
		t.Errorf("%d executed transactions recovered, want %d", st.Settled.Len(), cmds/7)
	}
}

// journaled is a chain end whose applies are journaled by key.
type journaled struct {
	mu    sync.Mutex
	order []string
}

func (g *journaled) ApplyAt(cmd command.Command, _ timestamp.Timestamp) []byte {
	g.note(cmd.Key)
	return nil
}

func (g *journaled) note(what string) {
	g.mu.Lock()
	g.order = append(g.order, what)
	g.mu.Unlock()
}

// put appends a put of key on app and returns a channel closed at its
// completion.
func put(t *testing.T, app protocol.Applier, seq uint64, key string) chan struct{} {
	t.Helper()
	done := make(chan struct{})
	cmd := command.Put(key, []byte("v"))
	cmd.ID = command.ID{Node: 1, Seq: seq}
	app.ApplyDeferred(cmd, timestamp.Timestamp{Seq: seq, Node: 1}, func(res protocol.Result) {
		if res.Err != nil {
			t.Errorf("put %s: %v", key, res.Err)
		}
		close(done)
	})
	return done
}

func within(ch chan struct{}, d time.Duration) bool {
	select {
	case <-ch:
		return true
	case <-time.After(d):
		return false
	}
}

// TestStalledCompletionHoldsLaterOnesNeverAReservation pins who may wait
// for whom: a completion that does not return — a slow state machine, an
// acknowledgement posting into a full inbox — holds back every completion
// behind it in the log, its own group's and any other's, since completions
// run in log order. A reservation, which an event loop waits for inside a
// handler, still returns as soon as its record is synced: were it queued
// behind completions, a loop parked on it could be the very loop the
// stalled completion is posting to.
func TestStalledCompletionHoldsLaterOnesNeverAReservation(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir(), Options{})
	j := &journaled{}
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release) // before the log's Close, which completes what is held
	stuck := l.GroupApplier(0, slowInto{gate, j})
	first := put(t, stuck, 1, "a")
	second := put(t, stuck, 2, "b")
	other := put(t, l.GroupApplier(1, j), 3, "c")

	reserved := make(chan struct{})
	go func() {
		defer close(reserved)
		if err := l.ReserveSeq(0, 4096); err != nil {
			t.Errorf("ReserveSeq: %v", err)
		}
		if err := l.LogClock(0, 4096); err != nil {
			t.Errorf("LogClock: %v", err)
		}
	}()
	if !within(reserved, 10*time.Second) {
		t.Fatal("a reservation waited for a stalled completion")
	}
	if within(first, 20*time.Millisecond) || within(second, 0) || within(other, 0) {
		t.Fatal("a command completed while an apply before it was held")
	}
	// The completer has passed none of the five entries: the three held
	// commands and, behind them, the two reservations the syncer completed.
	if st := l.Stats(); st.Pending != 5 || st.OldestPending <= 0 {
		t.Errorf("Stats() = %d pending, oldest %v with three commands and two reservations behind a held apply, want 5 and an age", st.Pending, st.OldestPending)
	}

	release()
	if !within(first, 10*time.Second) || !within(second, 10*time.Second) || !within(other, 10*time.Second) {
		t.Fatal("released applies did not complete")
	}
	if got := strings.Join(j.order, ""); got != "abc" {
		t.Errorf("applied in order %q, want append order abc", got)
	}
}

// TestTransactionKeepsItsLogPosition: a transaction over groups 0 and 1
// applies after everything either group appended before it — even when
// one of those applies takes long — and before anything they appended
// after it.
func TestTransactionKeepsItsLogPosition(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir(), Options{})
	release, _ := stallSync(l) // everything below lands in one batch
	j := &journaled{}
	slow := make(chan struct{})
	g0, g1 := l.GroupApplier(0, j), l.GroupApplier(1, slowInto{slow, j})

	put(t, g0, 1, "0-before")
	put(t, g1, 2, "1-before") // held until slow closes
	txDone := make(chan struct{})
	l.LogTx(xshard.XID{Node: 1, Seq: 1}, timestamp.Timestamp{Seq: 3, Node: 1}, nil,
		func() { j.note("tx") }, func(error) { close(txDone) })
	after0 := put(t, g0, 4, "0-after")
	after1 := put(t, g1, 5, "1-after")
	close(release)

	if within(txDone, 20*time.Millisecond) || within(after0, 0) {
		t.Fatal("the transaction, or group 0's later command, ran before group 1's earlier command")
	}
	close(slow)
	if !within(after0, 10*time.Second) || !within(after1, 10*time.Second) {
		t.Fatal("completions did not move on after the transaction")
	}
	pos := make(map[string]int)
	for i, what := range j.order {
		pos[what] = i
	}
	for _, before := range []string{"0-before", "1-before"} {
		if pos[before] > pos["tx"] {
			t.Errorf("order %v: %s was appended before the transaction and applied after it", j.order, before)
		}
	}
	for _, after := range []string{"0-after", "1-after"} {
		if pos[after] < pos["tx"] {
			t.Errorf("order %v: %s was appended after the transaction and applied before it", j.order, after)
		}
	}
}

// logGoroutines counts the goroutines a Log started.
func logGoroutines() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "created by github.com/caesar-consensus/caesar/internal/wal.(*Log).")
}

// TestLogRunsTwoGoroutines: however many groups append, a log runs its
// syncer and its completer, and neither outlives Close.
func TestLogRunsTwoGoroutines(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir(), Options{})
	store := kvstore.New()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		cmd, ts := addCmd(1, g+1)
		l.GroupApplier(g, store).ApplyDeferred(cmd, ts, func(res protocol.Result) {
			if res.Err != nil {
				t.Errorf("command %v: %v", cmd.ID, res.Err)
			}
			wg.Done()
		})
	}
	wg.Wait()
	if n := logGoroutines(); n != 2 {
		t.Errorf("a log appended to by four groups runs %d goroutines, want 2: the syncer and the completer", n)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// A goroutine Close waited for may still be returning from its last
	// deferred call.
	n := logGoroutines()
	for deadline := time.Now().Add(5 * time.Second); n != 0 && time.Now().Before(deadline); n = logGoroutines() {
		time.Sleep(time.Millisecond)
	}
	if n != 0 {
		t.Errorf("%d of the log's goroutines outlived Close", n)
	}
}

// slowInto applies into journal once gate opens.
type slowInto struct {
	gate    chan struct{}
	journal *journaled
}

func (s slowInto) ApplyAt(cmd command.Command, ts timestamp.Timestamp) []byte {
	<-s.gate
	return s.journal.ApplyAt(cmd, ts)
}

// TestCloseCompletesPending: Close syncs and completes everything appended
// before it, once each; what comes after is refused and not applied.
func TestCloseCompletesPending(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{})
	release, _ := stallSync(l)
	store := kvstore.New()
	app := l.GroupApplier(0, store)

	const n = 20
	fired := make([]atomic.Int32, n+2)
	for i := 1; i <= n; i++ {
		cmd, ts := addCmd(1, i)
		app.ApplyDeferred(cmd, ts, func(res protocol.Result) {
			if res.Err != nil {
				t.Errorf("command %v: %v", cmd.ID, res.Err)
			}
			fired[cmd.ID.Seq].Add(1)
		})
	}
	var closeErr error
	closed := make(chan struct{})
	go func() { closeErr = l.Close(); close(closed) }()
	close(release)
	if <-closed; closeErr != nil {
		t.Fatalf("Close: %v", closeErr)
	}
	for i := 1; i <= n; i++ {
		if got := fired[i].Load(); got != 1 {
			t.Errorf("command %d completed %d time(s) by the time Close returned", i, got)
		}
	}
	if store.Applied() != n {
		t.Errorf("store applied %d of %d commands queued before Close", store.Applied(), n)
	}

	cmd, ts := addCmd(1, n+1)
	var late protocol.Result
	app.ApplyDeferred(cmd, ts, func(res protocol.Result) { late = res })
	if !errors.Is(late.Err, ErrClosed) {
		t.Errorf("append after Close completed with %v, want ErrClosed", late.Err)
	}
	if store.Applied() != n {
		t.Error("a command refused by the closed log was applied")
	}
	_, st := mustOpen(t, dir, Options{})
	if st.Applied != n {
		t.Errorf("replay applied %d, want %d", st.Applied, n)
	}
}

// TestFailedSyncIsStickyAndJournaledOnce: the records of a sync that
// failed complete with the error and are not applied, every later append
// is refused with the same error, and the flight recorder says why once.
func TestFailedSyncIsStickyAndJournaledOnce(t *testing.T) {
	rec := flight.New(1, 16)
	l, _ := mustOpen(t, t.TempDir(), Options{Flight: rec})
	disk := errors.New("disk on fire")
	l.syncHook = func(*os.File) error { return disk }
	store := kvstore.New()
	app := l.GroupApplier(0, store)

	for i := 1; i <= 3; i++ {
		cmd, ts := addCmd(1, i)
		got := make(chan error, 1)
		app.ApplyDeferred(cmd, ts, func(res protocol.Result) { got <- res.Err })
		if err := <-got; !errors.Is(err, disk) {
			t.Fatalf("command %d completed with %v, want the sync's error", i, err)
		}
	}
	if err := l.ReserveSeq(0, 4096); !errors.Is(err, disk) {
		t.Errorf("ReserveSeq on the failed log: %v, want the sync's error", err)
	}
	if store.Applied() != 0 {
		t.Errorf("%d command(s) applied whose records never became durable", store.Applied())
	}
	if err := l.Close(); !errors.Is(err, disk) {
		t.Errorf("Close: %v, want the sync's error", err)
	}
	if n := strings.Count(flight.Format(rec.Dump()), "write-ahead log failed"); n != 1 {
		t.Errorf("the failure was journaled %d time(s), want once:\n%s", n, flight.Format(rec.Dump()))
	}
}

// BenchmarkLogPipelined appends from one goroutine with 1, 8 and 64
// records in flight — what one event loop does to the log at increasing
// load — and from four goroutines, each on its own group with 16 in
// flight, over one store — a sharded durable node: ops/s, records per
// fsync and allocations per record.
func BenchmarkLogPipelined(b *testing.B) {
	for _, depth := range []int{1, 8, 64} {
		b.Run("inflight="+strconv.Itoa(depth), func(b *testing.B) { benchPipelined(b, 1, depth) })
	}
	b.Run("groups=4", func(b *testing.B) { benchPipelined(b, 4, 16) })
}

// benchPipelined runs b.N puts through groups appending goroutines, each
// keeping depth records in flight.
func benchPipelined(b *testing.B, groups, depth int) {
	store := kvstore.New()
	l, _, err := OpenInto(b.TempDir(), store, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	var syncs atomic.Int64
	l.syncHook = func(f *os.File) error { syncs.Add(1); return f.Sync() }
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < groups; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			app := l.GroupApplier(g, store)
			window := make(chan struct{}, depth)
			done := func(protocol.Result) { <-window }
			cmd := command.Put("p"+strconv.Itoa(g)+"-0000", make([]byte, 16))
			for i := g; i < b.N; i += groups {
				seq := uint64(i/groups + 1) // each group's IDs run without gaps
				window <- struct{}{}
				cmd.ID = command.ID{Node: 1, Seq: seq}
				app.ApplyDeferred(cmd, timestamp.Timestamp{Seq: seq, Node: 1}, done)
			}
			for i := 0; i < depth; i++ {
				window <- struct{}{} // drain: every slot free again
			}
		}(g)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
	b.ReportMetric(float64(b.N)/float64(syncs.Load()), "records/fsync")
}
