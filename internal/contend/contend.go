// Package contend builds a node's contention profile: which keys are
// hot, and what each hot key costs the protocol.
//
// CAESAR's performance story is the fast-decision ratio, and it erodes
// exactly where collisions concentrate: a proposal on a contended key
// draws a NACK (and a retry at a higher timestamp), or blocks in the
// acceptor's §IV-A wait condition, or parks a local read fence behind an
// in-flight writer, or holds a cross-shard transaction open while the
// key's group drains. The per-event counters (internal/metrics) say how
// often those things happen; this package says on which keys, by
// attributing every such event to the offending key.
//
// Each consensus group owns a bounded heavy-hitter sketch — the
// space-saving top-K algorithm (Metwally et al.): at most K tracked
// keys, an untracked key replaces the minimum-weight entry and inherits
// its weight as the new entry's error floor, so a key whose true event
// count exceeds any tracked floor is guaranteed to be tracked. Memory is
// O(K) per group regardless of keyspace size, and every recording is one
// short critical section: a map probe, a few adds and an O(log K) step in
// a min-heap by weight, which keeps the entry eviction takes at its root.
// Durations are passed in by callers from their injected clocks — this
// package never reads the wall clock, so it is safe in consensus-path
// packages under the wallclock lint.
//
// The per-group sketches aggregate into a node-wide Profile: TopKeys
// merges and ranks the sketches, Losses decomposes each group's
// fast-path losses by cause (nack, blocked, retry, recovery), and
// Handler serves both as the /workloadz JSON document. All methods are
// nil-receiver safe, so recording sites need no guards.
package contend

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/caesar-consensus/caesar/internal/obs"
)

// DefaultK is the per-group sketch capacity used when NewProfile is
// given a non-positive K. 64 tracked keys per group is enough to rank
// any realistic skew's head.
const DefaultK = 64

// KeyStats is one key's row in the contention profile. Events is the
// key's space-saving weight (every attributed event, the rank order);
// the remaining counters split it by kind. ErrFloor is the weight the
// entry inherited when it replaced another — the key's true event count
// lies in [Events-ErrFloor, Events].
type KeyStats struct {
	Key   string `json:"key"`
	Group int    `json:"group"`
	// Events ranks the key: every touch and every attributed
	// contention event increments it.
	Events int64 `json:"events"`
	// Touches counts proposals carrying the key through this group.
	Touches int64 `json:"touches"`
	// Nacks counts proposal rejections this key caused (it was the
	// conflicting, higher-ranked record at the acceptor).
	Nacks int64 `json:"nacks,omitempty"`
	// Waits counts proposals this key blocked in the wait condition.
	Waits int64 `json:"waits,omitempty"`
	// Parks counts local read fences this key parked.
	Parks int64 `json:"parks,omitempty"`
	// Retries counts slow-path retry phases run for this key.
	Retries int64 `json:"retries,omitempty"`
	// Recoveries counts recovery phases run for this key.
	Recoveries int64 `json:"recoveries,omitempty"`
	// Holds counts cross-shard transactions on this key resolved (executed
	// or killed) at this node's commit table.
	Holds int64 `json:"holds,omitempty"`
	// WaitTime is the total time attributed to the key: wait-condition
	// block time, read-fence park time and cross-shard held-age.
	WaitTime time.Duration `json:"-"`
	// WaitSeconds renders WaitTime for the JSON document.
	WaitSeconds float64 `json:"wait_seconds"`
	// ErrFloor is the space-saving overestimation bound.
	ErrFloor int64 `json:"err_floor,omitempty"`
}

// Losses decomposes one group's fast-path losses by cause.
type Losses struct {
	// Nack counts proposals rejected outright (retry at a higher
	// timestamp follows).
	Nack int64 `json:"nack"`
	// Blocked counts proposals parked in the acceptor's wait condition.
	Blocked int64 `json:"blocked"`
	// Retry counts slow-path retry phases run by this group's leader.
	Retry int64 `json:"retry"`
	// Recovery counts recovery phases run for this group's commands.
	Recovery int64 `json:"recovery"`
}

// entry is one tracked key inside a group's sketch; at is its index in
// the group's heap.
type entry struct {
	key        string
	at         int
	weight     int64
	errFloor   int64
	touches    int64
	nacks      int64
	waits      int64
	parks      int64
	retries    int64
	recoveries int64
	holds      int64
	waitTime   time.Duration
}

// Group is one consensus group's contention sketch. All methods are
// safe for concurrent use and nil-receiver safe.
type Group struct {
	id int
	k  int

	mu    sync.Mutex
	byKey map[string]*entry
	// heap holds the entries of byKey as a binary min-heap by weight:
	// heap[0] is the one an untracked key evicts.
	heap []*entry

	lossNack     atomic.Int64
	lossBlocked  atomic.Int64
	lossRetry    atomic.Int64
	lossRecovery atomic.Int64
}

// record admits key into the sketch (space-saving: evict the minimum,
// inherit its weight as the error floor), bumps its weight and applies
// f to the entry — the package's single critical section.
func (g *Group) record(key string, f func(*entry)) {
	if g == nil || key == "" {
		return
	}
	g.mu.Lock()
	e := g.byKey[key]
	if e == nil {
		if len(g.heap) < g.k {
			e = &entry{key: key, at: len(g.heap)}
			g.heap = append(g.heap, e)
			g.up(e.at)
		} else {
			// Reuse the evicted entry, in place at the root: fresh keys
			// evict on every admission.
			e = g.heap[0]
			delete(g.byKey, e.key)
			*e = entry{key: key, weight: e.weight, errFloor: e.weight}
		}
		g.byKey[key] = e
	}
	e.weight++
	g.down(e.at) // weights only grow
	f(e)
	g.mu.Unlock()
}

// up and down restore the heap order around the entry at i, lighter
// entries towards the root, and keep every moved entry's at current.
// (container/heap's interface calls made a fresh-key Touch a third
// slower.)
func (g *Group) up(i int) {
	h := g.heap
	for i > 0 {
		p := (i - 1) / 2
		if h[p].weight <= h[i].weight {
			return
		}
		g.swap(i, p)
		i = p
	}
}

func (g *Group) down(i int) {
	h := g.heap
	for {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if r := m + 1; r < len(h) && h[r].weight < h[m].weight {
			m = r
		}
		if h[i].weight <= h[m].weight {
			return
		}
		g.swap(i, m)
		i = m
	}
}

func (g *Group) swap(i, j int) {
	h := g.heap
	h[i], h[j] = h[j], h[i]
	h[i].at, h[j].at = i, j
}

// Touch records a proposal carrying key through this group.
func (g *Group) Touch(key string) {
	g.record(key, func(e *entry) { e.touches++ })
}

// Nack attributes one proposal rejection to the conflicting key that
// caused it, and counts a fast-path loss with cause "nack".
func (g *Group) Nack(key string) {
	if g == nil {
		return
	}
	g.lossNack.Add(1)
	g.record(key, func(e *entry) { e.nacks++ })
}

// Blocked attributes one wait-condition park to the blocking key, and
// counts a fast-path loss with cause "blocked". The eventual unblock
// reports its duration through WaitDone.
func (g *Group) Blocked(key string) {
	if g == nil {
		return
	}
	g.lossBlocked.Add(1)
	g.record(key, func(e *entry) { e.waits++ })
}

// WaitDone attributes a completed wait-condition block's duration to
// the key that caused it.
func (g *Group) WaitDone(key string, d time.Duration) {
	if d < 0 {
		d = 0
	}
	g.record(key, func(e *entry) { e.waitTime += d })
}

// Park attributes one read-fence park to the in-flight command's key.
func (g *Group) Park(key string) {
	g.record(key, func(e *entry) { e.parks++ })
}

// ParkDone attributes a released read-fence park's duration to the key.
func (g *Group) ParkDone(key string, d time.Duration) {
	if d < 0 {
		d = 0
	}
	g.record(key, func(e *entry) { e.waitTime += d })
}

// Retry attributes one slow-path retry phase to the retried command's
// key, and counts a fast-path loss with cause "retry".
func (g *Group) Retry(key string) {
	if g == nil {
		return
	}
	g.lossRetry.Add(1)
	g.record(key, func(e *entry) { e.retries++ })
}

// Recovery attributes one recovery phase to the recovered command's
// key, and counts a fast-path loss with cause "recovery".
func (g *Group) Recovery(key string) {
	if g == nil {
		return
	}
	g.lossRecovery.Add(1)
	g.record(key, func(e *entry) { e.recoveries++ })
}

// Hold attributes one resolved cross-shard transaction's held age to
// key: the time the transaction kept the key pinned in the commit
// table before executing or dying.
func (g *Group) Hold(key string, age time.Duration) {
	if age < 0 {
		age = 0
	}
	g.record(key, func(e *entry) {
		e.holds++
		e.waitTime += age
	})
}

// Losses snapshots the group's fast-path-loss decomposition.
func (g *Group) Losses() Losses {
	if g == nil {
		return Losses{}
	}
	return Losses{
		Nack:     g.lossNack.Load(),
		Blocked:  g.lossBlocked.Load(),
		Retry:    g.lossRetry.Load(),
		Recovery: g.lossRecovery.Load(),
	}
}

// keys snapshots the group's tracked entries.
func (g *Group) keys() []KeyStats {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	out := make([]KeyStats, 0, len(g.byKey))
	for _, e := range g.byKey {
		out = append(out, KeyStats{
			Key:        e.key,
			Group:      g.id,
			Events:     e.weight,
			Touches:    e.touches,
			Nacks:      e.nacks,
			Waits:      e.waits,
			Parks:      e.parks,
			Retries:    e.retries,
			Recoveries: e.recoveries,
			Holds:      e.holds,
			WaitTime:   e.waitTime,
			ErrFloor:   e.errFloor,
		})
	}
	g.mu.Unlock()
	return out
}

// Profile aggregates the per-group sketches into one node-wide
// contention profile. The stack builds one per node and hands each
// consensus group — resize-created groups included — its Group sketch.
type Profile struct {
	k       int
	mu      sync.RWMutex
	groups  map[int]*Group
	groupOf atomic.Value // func(string) int
}

// NewProfile returns a Profile whose group sketches track up to k keys
// each (DefaultK when k <= 0).
func NewProfile(k int) *Profile {
	if k <= 0 {
		k = DefaultK
	}
	return &Profile{k: k, groups: make(map[int]*Group)}
}

// Group returns the sketch for one consensus group, creating it on
// first use (resize-created groups arrive here mid-run). Group of a
// nil profile is nil, which records nothing.
func (p *Profile) Group(id int) *Group {
	if p == nil {
		return nil
	}
	p.mu.RLock()
	g := p.groups[id]
	p.mu.RUnlock()
	if g != nil {
		return g
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if g = p.groups[id]; g == nil {
		g = &Group{id: id, k: p.k, byKey: make(map[string]*entry, p.k), heap: make([]*entry, 0, p.k)}
		p.groups[id] = g
	}
	return g
}

// SetGroupOf installs the node's key→group routing (the shard router),
// so snapshots report each key's current home group even when the
// recording group predates a resize.
func (p *Profile) SetGroupOf(fn func(string) int) {
	if p == nil || fn == nil {
		return
	}
	p.groupOf.Store(fn)
}

// TopKeys merges the group sketches and returns the n highest-weight
// keys (all tracked keys when n <= 0). A key recorded by several groups
// (resize) merges into one row under its current home group.
func (p *Profile) TopKeys(n int) []KeyStats {
	if p == nil {
		return nil
	}
	p.mu.RLock()
	groups := make([]*Group, 0, len(p.groups))
	for _, g := range p.groups {
		groups = append(groups, g)
	}
	p.mu.RUnlock()
	groupOf, _ := p.groupOf.Load().(func(string) int)
	merged := make(map[string]*KeyStats)
	for _, g := range groups {
		for _, ks := range g.keys() {
			m := merged[ks.Key]
			if m == nil {
				c := ks
				merged[ks.Key] = &c
				continue
			}
			m.Events += ks.Events
			m.Touches += ks.Touches
			m.Nacks += ks.Nacks
			m.Waits += ks.Waits
			m.Parks += ks.Parks
			m.Retries += ks.Retries
			m.Recoveries += ks.Recoveries
			m.Holds += ks.Holds
			m.WaitTime += ks.WaitTime
			if ks.ErrFloor > m.ErrFloor {
				m.ErrFloor = ks.ErrFloor
			}
		}
	}
	out := make([]KeyStats, 0, len(merged))
	for _, m := range merged {
		if groupOf != nil {
			m.Group = groupOf(m.Key)
		}
		m.WaitSeconds = m.WaitTime.Seconds()
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Events != out[j].Events {
			return out[i].Events > out[j].Events
		}
		return out[i].Key < out[j].Key
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// GroupLosses is one group's row in the loss decomposition.
type GroupLosses struct {
	Group  int `json:"group"`
	Losses Losses
}

// MarshalJSON flattens the cause counters beside the group id.
func (gl GroupLosses) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Group    int   `json:"group"`
		Nack     int64 `json:"nack"`
		Blocked  int64 `json:"blocked"`
		Retry    int64 `json:"retry"`
		Recovery int64 `json:"recovery"`
	}{gl.Group, gl.Losses.Nack, gl.Losses.Blocked, gl.Losses.Retry, gl.Losses.Recovery})
}

// GroupLossTable snapshots every group's loss decomposition, ordered
// by group id.
func (p *Profile) GroupLossTable() []GroupLosses {
	if p == nil {
		return nil
	}
	p.mu.RLock()
	ids := make([]int, 0, len(p.groups))
	for id := range p.groups {
		ids = append(ids, id)
	}
	p.mu.RUnlock()
	sort.Ints(ids)
	out := make([]GroupLosses, 0, len(ids))
	for _, id := range ids {
		out = append(out, GroupLosses{Group: id, Losses: p.Group(id).Losses()})
	}
	return out
}

// TotalLosses sums the loss decomposition across groups.
func (p *Profile) TotalLosses() Losses {
	var t Losses
	for _, gl := range p.GroupLossTable() {
		t.Nack += gl.Losses.Nack
		t.Blocked += gl.Losses.Blocked
		t.Retry += gl.Losses.Retry
		t.Recovery += gl.Losses.Recovery
	}
	return t
}

// Snapshot is the /workloadz JSON document: the merged top keys and
// the per-group fast-path-loss decomposition.
type Snapshot struct {
	// K is the per-group sketch capacity.
	K int `json:"k"`
	// TopKeys ranks the merged hot keys by event weight.
	TopKeys []KeyStats `json:"top_keys"`
	// Groups decomposes each group's fast-path losses by cause.
	Groups []GroupLosses `json:"groups"`
}

// Snapshot assembles the document, capped at n top keys (n <= 0: all).
func (p *Profile) Snapshot(n int) Snapshot {
	if p == nil {
		return Snapshot{}
	}
	return Snapshot{K: p.k, TopKeys: p.TopKeys(n), Groups: p.GroupLossTable()}
}

// Handler serves the profile as the /workloadz JSON document; ?top=N
// caps the key list (default 32).
func (p *Profile) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		n := 32
		if s := req.URL.Query().Get("top"); s != "" {
			if v, err := strconv.Atoi(s); err == nil && v > 0 {
				n = v
			}
		}
		obs.ServeJSON(w, p.Snapshot(n))
	})
}
