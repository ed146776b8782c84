package shard

import (
	"sync"
	"sync/atomic"
)

// Epochs is a node's routing-epoch history: the shard count of every
// epoch the node has installed. A command stamped with epoch E was routed
// by E's router on every replica, so the history answers, identically
// everywhere, which group a key belonged to under any past epoch — for the
// rebalance gate's verdicts, the commit table's abort markers and the
// store's audit fold.
//
// Lookups are lock-free (a copy-on-write map behind an atomic pointer):
// the store reads the history on every write while holding its innermost
// lock, and the commit table while holding its own, so a lookup never
// blocks or calls out. Install is rare (epoch changes and recovery replay)
// and takes a private leaf mutex only to serialise the copy.
type Epochs struct {
	mu      sync.Mutex // serialises Install copies; leaf lock, no callouts
	current atomic.Pointer[map[uint32]int32]
}

// NewEpochs returns an empty history.
func NewEpochs() *Epochs {
	e := &Epochs{}
	e.current.Store(&map[uint32]int32{})
	return e
}

// Install records that routing epoch carries the given shard count. The
// first install wins: an epoch's shard count is consensus-fixed, so the
// recovery replay, the coordinator's install and the epoch-0 seed can each
// install the same epoch without racing to different answers — and a
// buggy late installer cannot silently re-home every past command.
func (e *Epochs) Install(epoch uint32, shards int32) {
	if shards <= 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	old := *e.current.Load()
	if _, ok := old[epoch]; ok {
		return
	}
	next := make(map[uint32]int32, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[epoch] = shards
	e.current.Store(&next)
}

// Shards returns the shard count installed for epoch, or 0 if unknown.
func (e *Epochs) Shards(epoch uint32) int32 {
	return (*e.current.Load())[epoch]
}

// RouterAt rebuilds the router of an installed epoch; false for an epoch
// this node has not installed.
func (e *Epochs) RouterAt(epoch uint32) (Router, bool) {
	n := e.Shards(epoch)
	if n <= 0 {
		return Router{}, false
	}
	return NewRouterAt(epoch, int(n)), true
}

// GroupOf attributes key to a consensus group under the given routing
// epoch. Unknown epochs fall back to group 0; by the install-before-
// delivery invariant (a fence installs epoch E on a node before any
// epoch-E command is delivered there, and recovery replays epoch records
// in log order) the fallback is not reachable on a correctly routed
// write, but it keeps the store's audit fold total rather than panicking
// in the apply path.
func (e *Epochs) GroupOf(key string, epoch uint32) int32 {
	r, ok := e.RouterAt(epoch)
	if !ok {
		return 0
	}
	return int32(r.Shard(key))
}
