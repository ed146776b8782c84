package reads

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/kvstore"
	"github.com/caesar-consensus/caesar/internal/metrics"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/shard"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/xshard"
)

// fakeGroup is a scriptable GroupReader: stamps come from a counter and
// fences park until the test releases them.
type fakeGroup struct {
	mu      sync.Mutex
	seq     uint64
	stamps  int // ReadStamp calls: one per read attempt
	node    timestamp.NodeID
	parked  []protocol.Completion
	stopped bool
}

func (f *fakeGroup) ReadStamp() timestamp.Timestamp {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seq++
	f.stamps++
	return timestamp.Timestamp{Seq: f.seq, Node: f.node}
}

func (f *fakeGroup) ObserveStamp(ts timestamp.Timestamp) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seq = max(f.seq, ts.Seq)
}

func (f *fakeGroup) ReadFence(_ []string, _ timestamp.Timestamp, done protocol.Completion) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stopped {
		done.Complete(protocol.Result{Err: protocol.ErrStopped})
		return
	}
	f.parked = append(f.parked, done)
}

func (f *fakeGroup) release() {
	f.mu.Lock()
	parked := f.parked
	f.parked = nil
	f.mu.Unlock()
	for _, done := range parked {
		done.Complete(protocol.Result{})
	}
}

// waitParked blocks until n fences are parked on f.
func (f *fakeGroup) waitParked(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		f.mu.Lock()
		parked := len(f.parked)
		f.mu.Unlock()
		if parked >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d fences parked, want %d", parked, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// releaseFirst completes the oldest parked fence alone.
func (f *fakeGroup) releaseFirst() {
	f.mu.Lock()
	done := f.parked[0]
	f.parked = f.parked[1:]
	f.mu.Unlock()
	done.Complete(protocol.Result{})
}

// instant is a fakeGroup whose fences complete synchronously.
type instant struct{ fakeGroup }

func (f *instant) ReadFence(_ []string, _ timestamp.Timestamp, done protocol.Completion) {
	f.mu.Lock()
	stopped := f.stopped
	f.mu.Unlock()
	if stopped {
		done.Complete(protocol.Result{Err: protocol.ErrStopped})
		return
	}
	done.Complete(protocol.Result{})
}

func TestReadServesLocalValueAfterFence(t *testing.T) {
	store := kvstore.New()
	store.ApplyAt(command.Put("k", []byte("v1")), timestamp.Timestamp{Seq: 1})
	e := bound(store, nil)
	g := &instant{}
	e.Attach(0, g)

	val, present, err := e.Read(context.Background(), "k")
	if err != nil || !present || string(val) != "v1" {
		t.Fatalf("Read = %q,%v,%v", val, present, err)
	}
}

func TestReadWaitsForFence(t *testing.T) {
	store := kvstore.New()
	e := bound(store, nil)
	g := &fakeGroup{}
	e.Attach(0, g)

	done := make(chan struct{})
	go func() {
		defer close(done)
		// The pending write applies while the read is fenced; the read
		// must observe it only per its stamp — here the write lands below
		// the read stamp (seq 2 > 1), so it is visible.
		if val, _, err := e.Read(context.Background(), "k"); err != nil || string(val) != "w" {
			t.Errorf("Read = %q, %v", val, err)
		}
	}()
	// Wait until the fence parked, apply the conflicting write below the
	// read stamp, then release.
	g.waitParked(t, 1)
	store.ApplyAt(command.Put("k", []byte("w")), timestamp.Timestamp{Seq: 1})
	g.release()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("read did not complete after fence release")
	}
}

// A cross-shard transaction's writes carry its merged timestamp, which can
// sit far above the key's own group clock. When they are all the store
// retains of the key, a read stamped from that clock is uncovered, and
// stays uncovered however often it re-stamps — unless the retry first
// pushes the clock past the stamps that hid the point (bench/README.md
// finding 2).
func TestReadOfKeyVersionedAboveGroupClock(t *testing.T) {
	store := kvstore.New()
	g := &instant{}
	merged := g.ReadStamp()
	merged.Seq += 1000
	for i := byte(0); i < 9; i++ { // one more than a key ever retains
		store.ApplyAllAt([]command.Command{command.Put("k", []byte{i})}, merged)
	}
	e := bound(store, nil)
	e.Attach(0, g)

	g.stamps = 0
	val, present, err := e.Read(context.Background(), "k")
	if err != nil || !present || len(val) != 1 || val[0] != 8 {
		t.Fatalf("Read = %v,%v,%v, want the last write", val, present, err)
	}
	if g.stamps > 2 {
		t.Fatalf("read took %d attempts, want at most 2", g.stamps)
	}
}

// A write applied with no read in flight replaces what it found, so a read
// that begins afterwards cannot be served the older version — not even when
// the write sits above the group clock the read is stamped from (a
// transaction's merged timestamp): the store answers uncovered and the one
// retry returns the write.
func TestReadAfterAppliedTxSeesIt(t *testing.T) {
	store := kvstore.New()
	g := &instant{}
	store.ApplyAt(command.Put("k", []byte("before")), g.ReadStamp())
	merged := timestamp.Timestamp{Seq: 1000, Node: 1}
	store.ApplyAllAt([]command.Command{command.Put("k", []byte("tx"))}, merged)
	met := metrics.NewRecorder()
	e := bound(store, met)
	e.Attach(0, g)

	val, present, err := e.Read(context.Background(), "k")
	if err != nil || !present || string(val) != "tx" {
		t.Fatalf("Read after the applied transaction = %q,%v,%v, want it", val, present, err)
	}
	if got := met.ReadRetries.Load(); got != 1 {
		t.Fatalf("ReadRetries = %d, want the one uncovered attempt", got)
	}
	if got := store.RetainedVersions(); got != 0 {
		t.Fatalf("RetainedVersions = %d with no write under the read, want 0", got)
	}
}

func TestReadUnknownGroupUnavailable(t *testing.T) {
	e := bound(kvstore.New(), nil)
	if _, _, err := e.Read(context.Background(), "k"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
}

func TestReadStoppedGroupSurfacesErrStopped(t *testing.T) {
	// A group that stays dead across the re-route retry is a node
	// shutting down; the caller sees ErrStopped, not a retry error.
	e := bound(kvstore.New(), nil)
	g := &instant{}
	g.stopped = true
	e.Attach(0, g)
	if _, _, err := e.Read(context.Background(), "k"); !errors.Is(err, protocol.ErrStopped) {
		t.Fatalf("err = %v, want protocol.ErrStopped", err)
	}
}

func TestReadCancelledContext(t *testing.T) {
	e := bound(kvstore.New(), nil)
	e.Attach(0, &fakeGroup{}) // fences park forever
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, _, err := e.Read(ctx, "k"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestReadTxMergesStampsAcrossGroups(t *testing.T) {
	store := kvstore.New()
	router := shard.NewRouter(2)
	keys := twoGroupKeys(router)
	k0, k1 := keys[0], keys[1]
	store.ApplyAt(command.Put(k0, []byte("x")), timestamp.Timestamp{Seq: 1})
	store.ApplyAt(command.Put(k1, []byte("y")), timestamp.Timestamp{Seq: 1, Node: 1})

	e := bound(store, nil)
	e.router = func() shard.Router { return router }
	e.Attach(0, &instant{fakeGroup{node: 0}})
	e.Attach(1, &instant{fakeGroup{node: 1, seq: 100}}) // the max stamp donor

	vals, present, err := e.ReadTx(context.Background(), []string{k0, k1})
	if err != nil {
		t.Fatal(err)
	}
	if !present[0] || !present[1] || string(vals[0]) != "x" || string(vals[1]) != "y" {
		t.Fatalf("snapshot = %q/%q (%v/%v)", vals[0], vals[1], present[0], present[1])
	}
}

func TestReadRetriesWhenKeyMovesGroups(t *testing.T) {
	store := kvstore.New()
	store.ApplyAt(command.Put("k", []byte("v")), timestamp.Timestamp{Seq: 1})
	e := bound(store, nil)

	// The router flips from 1 to 2 shards after the first routing: the
	// attempt's epoch recheck must retry (and succeed) under the new one.
	var mu sync.Mutex
	calls := 0
	e.router = func() shard.Router {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if calls <= 1 {
			return shard.NewRouterAt(0, 2)
		}
		return shard.NewRouterAt(1, 3)
	}
	for g := 0; g < 3; g++ {
		e.Attach(g, &instant{fakeGroup{node: timestamp.NodeID(g)}})
	}
	// Whether the key actually changes shard between the 2→3 routers is
	// hash-dependent; either way the read must complete.
	val, _, err := e.Read(context.Background(), "k")
	if err != nil || string(val) != "v" {
		t.Fatalf("Read across resize = %q, %v", val, err)
	}
}

// bound returns an engine over store, bound as a one-group node binds it:
// to the router of one group at epoch 0 and to an empty commit table. A
// test of several groups replaces the router before it reads.
func bound(store *kvstore.Store, met *metrics.Recorder) *Engine {
	e := New(store, met)
	e.Bind(func() shard.Router { return shard.NewRouter(1) }, xshard.NewTable(xshard.TableConfig{Exec: store}, nil))
	return e
}

// twoGroupKeys returns a key of group 0 and a key of group 1 under router.
func twoGroupKeys(router shard.Router) []string {
	k0, k1 := "", ""
	for i := 0; k0 == "" || k1 == ""; i++ {
		k := string(rune('a' + i))
		if router.Shard(k) == 0 && k0 == "" {
			k0 = k
		}
		if router.Shard(k) == 1 && k1 == "" {
			k1 = k
		}
	}
	return []string{k0, k1}
}

// TestReleasedStateHoldsNoReader: a state goes back to the pool with its
// touched list and key slices but no group reader and no key, also where
// an earlier attempt of fewer groups or keys left them (two attempts on
// one state, as a retry makes), so a pooled state pins no group a resize
// retired or Attach replaced.
func TestReleasedStateHoldsNoReader(t *testing.T) {
	router := shard.NewRouter(2)
	e := bound(kvstore.New(), nil)
	e.router = func() shard.Router { return router }
	e.Attach(0, &instant{})
	e.Attach(1, &instant{})
	keys := twoGroupKeys(router)
	for i := 0; len(keys) < 3; i++ { // a second key of group 0
		if k := fmt.Sprint(i); router.Shard(k) == 0 {
			keys = append(keys, k)
		}
	}
	s := new(readState)
	for _, ks := range [][]string{keys, keys[1:2]} {
		vals, present := make([][]byte, len(ks)), make([]bool, len(ks))
		if last, err := e.do(context.Background(), s, ks, vals, present); err != nil || last != s {
			t.Fatalf("read of %q = %v, with a state of its own %v", ks, err, last == s)
		}
	}
	e.release(s)
	all := s.touched[:cap(s.touched)]
	if len(all) < 2 {
		t.Fatalf("the state kept %d touched entries, want at least 2", len(all))
	}
	for i, g := range all {
		if g.reader != nil {
			t.Errorf("entry %d keeps the reader of group %d", i, g.group)
		}
		if slices.ContainsFunc(g.keys[:cap(g.keys)], func(k string) bool { return k != "" }) {
			t.Errorf("entry %d keeps keys %q", i, g.keys[:cap(g.keys)])
		}
	}
}

// A read cancelled while its fence is parked returns with the fence still
// registered against its state, so the state goes to the GC, not back to
// the pool: when the stale fence fires later, it must not release the
// next read, which still waits for its own fence. Ten rounds, each a
// chance for the pool to hand the cancelled read's state on.
func TestReadAfterCancelledReadWaitsForItsOwnFence(t *testing.T) {
	e := bound(kvstore.New(), nil)
	g := &fakeGroup{}
	e.Attach(0, g)
	for round := 0; round < 10; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancelled := make(chan error, 1)
		go func() { _, _, err := e.Read(ctx, "k"); cancelled <- err }()
		g.waitParked(t, 1)
		cancel()
		if err := <-cancelled; !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: cancelled read = %v, want context.Canceled", round, err)
		}
		g.release() // the stale fence completes

		done := make(chan error, 1)
		go func() { _, _, err := e.Read(context.Background(), "k"); done <- err }()
		g.waitParked(t, 1)
		select {
		case err := <-done:
			t.Fatalf("round %d: read returned (%v) before its own fence completed", round, err)
		case <-time.After(20 * time.Millisecond):
		}
		g.release()
		if err := <-done; err != nil {
			t.Fatalf("round %d: read = %v", round, err)
		}
	}
}

// stopsOnce is an instant group whose first fence answers ErrStopped, as a
// group a shrink retires under a read does before the retry re-routes.
type stopsOnce struct {
	instant
	stopped atomic.Bool
}

func (f *stopsOnce) ReadFence(keys []string, ts timestamp.Timestamp, done protocol.Completion) {
	if f.stopped.CompareAndSwap(false, true) {
		done.Complete(protocol.Result{Err: protocol.ErrStopped})
		return
	}
	f.instant.ReadFence(keys, ts, done)
}

// A two-group ReadTx whose attempt sees one group stop while the other's
// fence is still parked retries with a fresh state. The stale fence fires
// first and a write below the read point applies only after it: the
// retry's snapshot waits for its own fence and returns the write.
func TestReadTxRetriesPastAStoppedGroupWithItsOwnFences(t *testing.T) {
	store := kvstore.New()
	router := shard.NewRouter(2)
	keys := twoGroupKeys(router)
	store.ApplyAt(command.Put(keys[1], []byte("y")), timestamp.Timestamp{Seq: 1, Node: 1})
	e := bound(store, nil)
	e.router = func() shard.Router { return router }
	parking := &fakeGroup{node: 0}
	e.Attach(0, parking)
	e.Attach(1, &stopsOnce{instant: instant{fakeGroup{node: 1}}})

	type result struct {
		vals    [][]byte
		present []bool
		err     error
	}
	done := make(chan result, 1)
	go func() {
		vals, present, err := e.ReadTx(context.Background(), keys)
		done <- result{vals, present, err}
	}()
	parking.waitParked(t, 2) // the stopped attempt's fence and the retry's
	parking.releaseFirst()   // the stale one
	select {
	case r := <-done:
		t.Fatalf("ReadTx returned (%q, %v) on the stopped attempt's fence", r.vals, r.err)
	case <-time.After(20 * time.Millisecond):
	}
	store.ApplyAt(command.Put(keys[0], []byte("w")), timestamp.Timestamp{Seq: 1})
	parking.release()
	r := <-done
	if r.err != nil || !r.present[0] || string(r.vals[0]) != "w" || !r.present[1] || string(r.vals[1]) != "y" {
		t.Fatalf("ReadTx = %q (%v), %v, want [w y]", r.vals, r.present, r.err)
	}
}

// OldestPending hands its keys to the stall watchdog, which formats them
// on its own goroutine after the engine's lock is released; a read's key
// list is its pooled state's, which the next read overwrites. One
// goroutine reads key after key while another formats what OldestPending
// reports: under the race detector, a returned list that is the read's
// own is a data race.
func TestOldestPendingKeysAreACopy(t *testing.T) {
	e := bound(kvstore.New(), nil)
	g := &fakeGroup{}
	e.Attach(0, g)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // completes fences as they park
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				g.release()
				time.Sleep(10 * time.Microsecond)
			}
		}
	}()
	go func() { // the watchdog
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if keys, _, ok := e.OldestPending(); ok {
					_ = fmt.Sprintf("read of %v parked at its fence", keys)
				}
			}
		}
	}()
	for i := 0; i < 500; i++ {
		if _, _, err := e.Read(context.Background(), fmt.Sprintf("k%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
