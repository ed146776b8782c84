package contend

import (
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"
)

// TestSpaceSavingRecall feeds a zipfian stream over a keyspace far
// larger than the sketch and asserts the space-saving guarantees: the
// true heaviest keys are all tracked, every estimate is an
// overestimate, and the error floor bounds the overestimation.
func TestSpaceSavingRecall(t *testing.T) {
	const (
		k        = 32
		keyspace = 10000
		draws    = 200000
	)
	p := NewProfile(k)
	g := p.Group(0)
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.2, 1, keyspace-1)
	truth := make(map[string]int64)
	for i := 0; i < draws; i++ {
		key := "key" + strconv.FormatUint(zipf.Uint64(), 10)
		truth[key]++
		g.Touch(key)
	}

	top := p.TopKeys(0)
	if len(top) > k {
		t.Fatalf("sketch tracks %d keys, capacity %d", len(top), k)
	}
	tracked := make(map[string]KeyStats, len(top))
	for _, ks := range top {
		tracked[ks.Key] = ks
	}

	// Any key whose true count exceeds every possible floor (draws/k is
	// the maximum possible minimum weight) must be tracked. The head of
	// a 1.2-zipfian easily clears it; require at least the top 5.
	type kc struct {
		key string
		n   int64
	}
	var all []kc
	for key, n := range truth {
		all = append(all, kc{key, n})
	}
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			if all[j].n > all[i].n {
				all[i], all[j] = all[j], all[i]
			}
		}
	}
	floor := int64(draws / k)
	for i := 0; i < 5; i++ {
		if all[i].n <= floor {
			t.Skipf("stream not skewed enough: true #%d count %d under floor %d", i, all[i].n, floor)
		}
		ks, ok := tracked[all[i].key]
		if !ok {
			t.Fatalf("true top-%d key %q (count %d) not tracked", i+1, all[i].key, all[i].n)
		}
		if ks.Events < all[i].n {
			t.Errorf("key %q estimate %d underestimates true count %d", all[i].key, ks.Events, all[i].n)
		}
		if ks.Events-ks.ErrFloor > all[i].n {
			t.Errorf("key %q estimate %d - floor %d exceeds true count %d",
				all[i].key, ks.Events, ks.ErrFloor, all[i].n)
		}
	}

	// Every tracked estimate overestimates within its floor.
	for _, ks := range top {
		n := truth[ks.Key]
		if ks.Events < n {
			t.Errorf("key %q estimate %d < true %d", ks.Key, ks.Events, n)
		}
		if ks.Events-ks.ErrFloor > n {
			t.Errorf("key %q estimate %d - floor %d > true %d", ks.Key, ks.Events, ks.ErrFloor, n)
		}
	}
}

// TestBoundedMemory streams many distinct keys through every recording
// method and asserts the sketch never exceeds its capacity.
func TestBoundedMemory(t *testing.T) {
	const k = 16
	p := NewProfile(k)
	g := p.Group(3)
	for i := 0; i < 5000; i++ {
		key := "k" + strconv.Itoa(i)
		g.Touch(key)
		g.Nack(key)
		g.Blocked(key)
		g.WaitDone(key, time.Millisecond)
		g.Park(key)
		g.ParkDone(key, time.Millisecond)
		g.Retry(key)
		g.Recovery(key)
		g.Hold(key, time.Millisecond)
	}
	if got := len(p.TopKeys(0)); got > k {
		t.Fatalf("sketch holds %d keys, capacity %d", got, k)
	}
	losses := g.Losses()
	if losses.Nack != 5000 || losses.Blocked != 5000 || losses.Retry != 5000 || losses.Recovery != 5000 {
		t.Fatalf("loss decomposition lost events: %+v", losses)
	}
}

// TestEvictionStartsTheNewKeyClean pins what reusing the evicted entry
// must not change: the admitted key inherits the evicted weight as its
// error floor and none of the evicted key's per-kind counters.
func TestEvictionStartsTheNewKeyClean(t *testing.T) {
	g := NewProfile(1).Group(0)
	g.Touch("old")
	g.Nack("old")
	g.Hold("old", time.Second)
	g.Touch("new")
	rows := g.keys()
	want := KeyStats{Key: "new", Events: 4, Touches: 1, ErrFloor: 3}
	if len(rows) != 1 || rows[0] != want {
		t.Fatalf("after eviction the sketch holds %+v, want exactly %+v", rows, want)
	}
}

// TestAttribution checks each recording method lands in its column and
// durations accumulate into WaitTime.
func TestAttribution(t *testing.T) {
	p := NewProfile(8)
	g := p.Group(1)
	g.Touch("hot")
	g.Touch("hot")
	g.Nack("hot")
	g.Blocked("hot")
	g.WaitDone("hot", 2*time.Millisecond)
	g.Park("hot")
	g.ParkDone("hot", 3*time.Millisecond)
	g.Retry("hot")
	g.Recovery("hot")
	g.Hold("hot", 5*time.Millisecond)

	top := p.TopKeys(1)
	if len(top) != 1 || top[0].Key != "hot" {
		t.Fatalf("TopKeys = %+v, want the hot key", top)
	}
	ks := top[0]
	if ks.Touches != 2 || ks.Nacks != 1 || ks.Waits != 1 || ks.Parks != 1 ||
		ks.Retries != 1 || ks.Recoveries != 1 || ks.Holds != 1 {
		t.Fatalf("misattributed counters: %+v", ks)
	}
	if want := 10 * time.Millisecond; ks.WaitTime != want {
		t.Fatalf("WaitTime = %v, want %v", ks.WaitTime, want)
	}
	if ks.Group != 1 {
		t.Fatalf("Group = %d, want recording group 1", ks.Group)
	}
}

// TestMergeAcrossGroups records one key in two group sketches (a key's
// history spans groups after a resize) and checks TopKeys merges the
// rows, annotating the current home group via SetGroupOf.
func TestMergeAcrossGroups(t *testing.T) {
	p := NewProfile(8)
	p.Group(0).Touch("moved")
	p.Group(0).Nack("moved")
	p.Group(2).Touch("moved")
	p.SetGroupOf(func(string) int { return 2 })

	top := p.TopKeys(0)
	if len(top) != 1 {
		t.Fatalf("merged rows = %d, want 1", len(top))
	}
	ks := top[0]
	if ks.Touches != 2 || ks.Nacks != 1 || ks.Events != 3 {
		t.Fatalf("merge lost events: %+v", ks)
	}
	if ks.Group != 2 {
		t.Fatalf("Group = %d, want routed home 2", ks.Group)
	}
}

// TestNilSafety exercises every method on nil receivers; recording
// sites rely on this to skip guards.
func TestNilSafety(t *testing.T) {
	var p *Profile
	g := p.Group(0)
	if g != nil {
		t.Fatal("nil profile returned a non-nil group")
	}
	g.Touch("k")
	g.Nack("k")
	g.Blocked("k")
	g.WaitDone("k", time.Second)
	g.Park("k")
	g.ParkDone("k", time.Second)
	g.Retry("k")
	g.Recovery("k")
	g.Hold("k", time.Second)
	_ = g.Losses()
	p.SetGroupOf(func(string) int { return 0 })
	if got := p.TopKeys(5); got != nil {
		t.Fatalf("nil profile TopKeys = %v", got)
	}
	if s := p.Snapshot(5); s.TopKeys != nil || s.Groups != nil {
		t.Fatalf("nil profile Snapshot = %+v", s)
	}
}

// TestHandlerJSON asserts the /workloadz document shape: top keys with
// attribution columns and the per-group loss decomposition.
func TestHandlerJSON(t *testing.T) {
	p := NewProfile(8)
	g := p.Group(0)
	for i := 0; i < 9; i++ {
		g.Touch("hot")
	}
	g.Nack("hot")
	g.Blocked("hot")
	g.WaitDone("hot", 250*time.Millisecond)
	g.Touch("cold")

	rr := httptest.NewRecorder()
	p.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/workloadz?top=1", nil))
	if ct := rr.Header().Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var snap struct {
		K       int `json:"k"`
		TopKeys []struct {
			Key         string  `json:"key"`
			Events      int64   `json:"events"`
			Nacks       int64   `json:"nacks"`
			Waits       int64   `json:"waits"`
			WaitSeconds float64 `json:"wait_seconds"`
		} `json:"top_keys"`
		Groups []struct {
			Group int   `json:"group"`
			Nack  int64 `json:"nack"`
		} `json:"groups"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rr.Body.String())
	}
	if snap.K != 8 {
		t.Fatalf("k = %d, want 8", snap.K)
	}
	if len(snap.TopKeys) != 1 || snap.TopKeys[0].Key != "hot" {
		t.Fatalf("top_keys = %+v, want just the hot key", snap.TopKeys)
	}
	if snap.TopKeys[0].Nacks != 1 || snap.TopKeys[0].Waits != 1 {
		t.Fatalf("attribution columns missing: %+v", snap.TopKeys[0])
	}
	if snap.TopKeys[0].WaitSeconds != 0.25 {
		t.Fatalf("wait_seconds = %v, want 0.25", snap.TopKeys[0].WaitSeconds)
	}
	if len(snap.Groups) != 1 || snap.Groups[0].Group != 0 || snap.Groups[0].Nack != 1 {
		t.Fatalf("groups = %+v", snap.Groups)
	}
}

// TestConcurrentRecordScrape hammers one profile from recording and
// scraping goroutines; the -race run is the assertion.
func TestConcurrentRecordScrape(t *testing.T) {
	p := NewProfile(16)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := p.Group(w % 2)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := "k" + strconv.Itoa(i%100)
				g.Touch(key)
				g.Nack(key)
				g.Blocked(key)
				g.WaitDone(key, time.Microsecond)
				g.Park(key)
				g.Retry(key)
				g.Hold(key, time.Microsecond)
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = p.Snapshot(10)
				_ = p.TotalLosses()
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestEvictionTakesAMinimumWeightEntry is the heap against a linear scan:
// after every record, an admission by eviction must have taken the weight
// of a lightest entry as its floor, and every entry must sit where the heap
// says it does, no lighter than its parent.
func TestEvictionTakesAMinimumWeightEntry(t *testing.T) {
	const k = 8
	g := NewProfile(k).Group(0)
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 1, 200)
	record := []func(string){g.Touch, g.Nack, g.Blocked, g.Park, g.Retry, g.Recovery,
		func(key string) { g.Hold(key, time.Millisecond) }}
	evictions := 0
	for i := 0; i < 20000; i++ {
		key := "k" + strconv.FormatUint(zipf.Uint64(), 10)
		min := int64(-1)
		if _, tracked := g.byKey[key]; !tracked && len(g.byKey) == k {
			for _, e := range g.byKey {
				if min < 0 || e.weight < min {
					min = e.weight
				}
			}
		}
		record[rng.Intn(len(record))](key)
		e := g.byKey[key]
		if min >= 0 {
			evictions++
			if e.errFloor != min || e.weight != min+1 {
				t.Fatalf("record %d: %q admitted with floor %d, weight %d; the lightest entry weighed %d", i, key, e.errFloor, e.weight, min)
			}
		}
		if len(g.heap) != len(g.byKey) || len(g.byKey) > k {
			t.Fatalf("record %d: heap holds %d entries, map %d, capacity %d", i, len(g.heap), len(g.byKey), k)
		}
		for at, e := range g.heap {
			if e.at != at || g.byKey[e.key] != e {
				t.Fatalf("record %d: heap[%d] is %q, which says it is at %d", i, at, e.key, e.at)
			}
			if parent := g.heap[(at-1)/2]; at > 0 && parent.weight > e.weight {
				t.Fatalf("record %d: heap[%d] weighs %d under a parent of %d", i, at, e.weight, parent.weight)
			}
		}
	}
	if evictions < 1000 {
		t.Fatalf("script broken: %d admissions by eviction", evictions)
	}
}

// BenchmarkTouch records never-repeating keys on a full sketch of the
// default size: every Touch is an admission by eviction, as it is for a
// proposal on a fresh key at every replica.
func BenchmarkTouch(b *testing.B) {
	g := NewProfile(DefaultK).Group(0)
	keys := make([]string, 1<<14) // far more than DefaultK: each comes back evicted
	for i := range keys {
		keys[i] = "key" + strconv.Itoa(i)
	}
	for _, k := range keys {
		g.Touch(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Touch(keys[i&(len(keys)-1)])
	}
}
