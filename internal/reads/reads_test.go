package reads

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/kvstore"
	"github.com/caesar-consensus/caesar/internal/metrics"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/shard"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// fakeGroup is a scriptable GroupReader: stamps come from a counter and
// fences park until the test releases them.
type fakeGroup struct {
	mu      sync.Mutex
	seq     uint64
	stamps  int // ReadStamp calls: one per read attempt
	node    timestamp.NodeID
	parked  []func(error)
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

func (f *fakeGroup) ReadFence(_ []string, _ timestamp.Timestamp, done func(error)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stopped {
		done(protocol.ErrStopped)
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
		done(nil)
	}
}

// instant is a fakeGroup whose fences complete synchronously.
type instant struct{ fakeGroup }

func (f *instant) ReadFence(_ []string, _ timestamp.Timestamp, done func(error)) {
	f.mu.Lock()
	stopped := f.stopped
	f.mu.Unlock()
	if stopped {
		done(protocol.ErrStopped)
		return
	}
	done(nil)
}

func TestReadServesLocalValueAfterFence(t *testing.T) {
	store := kvstore.New()
	store.ApplyAt(command.Put("k", []byte("v1")), timestamp.Timestamp{Seq: 1})
	e := New(store, nil)
	g := &instant{}
	e.Attach(0, g)

	val, present, err := e.Read(context.Background(), "k")
	if err != nil || !present || string(val) != "v1" {
		t.Fatalf("Read = %q,%v,%v", val, present, err)
	}
}

func TestReadWaitsForFence(t *testing.T) {
	store := kvstore.New()
	e := New(store, nil)
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
	for {
		g.mu.Lock()
		parked := len(g.parked)
		g.mu.Unlock()
		if parked > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
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
	e := New(store, nil)
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
	e := New(store, met)
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
	e := New(kvstore.New(), nil)
	if _, _, err := e.Read(context.Background(), "k"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
}

func TestReadStoppedGroupSurfacesErrStopped(t *testing.T) {
	// A group that stays dead across the re-route retry is a node
	// shutting down; the caller sees ErrStopped, not a retry error.
	e := New(kvstore.New(), nil)
	g := &instant{}
	g.stopped = true
	e.Attach(0, g)
	if _, _, err := e.Read(context.Background(), "k"); !errors.Is(err, protocol.ErrStopped) {
		t.Fatalf("err = %v, want protocol.ErrStopped", err)
	}
}

func TestReadCancelledContext(t *testing.T) {
	e := New(kvstore.New(), nil)
	e.Attach(0, &fakeGroup{}) // fences park forever
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, _, err := e.Read(ctx, "k"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestReadTxMergesStampsAcrossGroups(t *testing.T) {
	store := kvstore.New()
	// Two keys on different groups of a 2-shard router.
	router := shard.NewRouter(2)
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
	store.ApplyAt(command.Put(k0, []byte("x")), timestamp.Timestamp{Seq: 1})
	store.ApplyAt(command.Put(k1, []byte("y")), timestamp.Timestamp{Seq: 1, Node: 1})

	e := New(store, nil)
	e.SetRouter(func() shard.Router { return router })
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
	e := New(store, nil)

	// The router flips from 1 to 2 shards after the first routing: the
	// attempt's epoch recheck must retry (and succeed) under the new one.
	var mu sync.Mutex
	calls := 0
	e.SetRouter(func() shard.Router {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if calls <= 1 {
			return shard.NewRouterAt(0, 2)
		}
		return shard.NewRouterAt(1, 3)
	})
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
