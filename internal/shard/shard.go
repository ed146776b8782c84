// Package shard partitions a deployment into G independent consensus
// groups per node, routing every command to a group by consistent hashing
// of its key. Commands on different shards propose, stabilize and execute
// fully in parallel; commands on the same key always land on the same
// shard, so the per-key total order of conflicting commands is preserved.
// Nothing is ordered across shards: a sharded deployment offers per-key
// (per-shard) linearizability, not cross-shard serializability.
//
// The package has three pieces, which internal/xshard's Engine composes
// into a node's sharded submission engine:
//
//   - Router: a stable, epoch-versioned key → shard map built on Jump
//     Consistent Hash, so growing the shard count from G to G+1 moves only
//     ~1/(G+1) of keys. An epoch names one shard count; the live
//     rebalancing layer (internal/rebalance) installs a new epoch to
//     resize a running deployment.
//   - Epochs: a node's routing-epoch history, from which the router of
//     any installed epoch is rebuilt — one per node, shared by the
//     rebalancing layer, the cross-shard commit table and the store.
//   - Mux: splits one transport.Endpoint into per-shard logical endpoints
//     by tagging every payload with its shard, reusing the memnet and
//     tcpnet transports unchanged. Channels can be added (and retired) at
//     runtime for live resizes.
package shard

import (
	"errors"
	"fmt"
	"slices"

	"github.com/caesar-consensus/caesar/internal/command"
)

// ErrCrossShard rejects multi-key commands whose keys hash to different
// shards. internal/xshard's engine catches it and commits such a command
// atomically across the groups it touches; it surfaces only for a single
// member command whose own keys span groups.
var ErrCrossShard = errors.New("shard: command keys span multiple shards")

// Router maps keys to shards. The zero value routes everything to shard 0
// at epoch 0. A Router is an immutable value: a resize installs a new
// Router with the next epoch and the new shard count.
type Router struct {
	shards int
	epoch  uint32
}

// NewRouter returns an epoch-0 router over the given number of shards
// (minimum 1).
func NewRouter(shards int) Router {
	return NewRouterAt(0, shards)
}

// NewRouterAt returns the router of one routing epoch: the epoch names
// this shard count cluster-wide, so replicas can tell which routing rule a
// command was submitted under.
func NewRouterAt(epoch uint32, shards int) Router {
	if shards < 1 {
		shards = 1
	}
	return Router{shards: shards, epoch: epoch}
}

// Shards returns the shard count.
func (r Router) Shards() int {
	if r.shards < 1 {
		return 1
	}
	return r.shards
}

// Epoch returns the routing epoch this router belongs to.
func (r Router) Epoch() uint32 { return r.epoch }

// FNV-1a constants (the 64-bit offset basis and prime), inlined so Shard
// stays allocation-free on the submission hot path.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Shard returns the shard for a key. The hash is FNV-1a, computed inline:
// the stdlib hash/fnv forces a heap allocation per call through its
// interface, which showed up on every submission of a sharded deployment.
func (r Router) Shard(key string) int {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return jump(h, r.Shards())
}

// Route returns the shard every key of cmd maps to. A keyless command
// (a noop) has no home shard and routes to shard 0. A multi-key command
// whose keys span shards is rejected with ErrCrossShard, whose message
// names two keys and their shards; internal/xshard catches that and runs
// the atomic cross-group commit instead.
func (r Router) Route(cmd command.Command) (int, error) {
	s, ok := r.Home(cmd)
	if ok {
		return s, nil
	}
	k := cmd.ExtraKeys[slices.IndexFunc(cmd.ExtraKeys, func(k string) bool { return r.Shard(k) != s })]
	return 0, fmt.Errorf("%w: %q→%d, %q→%d", ErrCrossShard, cmd.Key, s, k, r.Shard(k))
}

// Home is Route without the error: the shard every key of cmd maps to and
// true, or cmd.Key's shard and false when the keys span shards. It
// allocates nothing, so a submission path can probe with it and build
// Route's message only when it shows one.
func (r Router) Home(cmd command.Command) (int, bool) {
	if cmd.Op == command.OpNoop || cmd.Op == command.OpFence {
		return 0, true // keyless, as Keys reports it
	}
	s := r.Shard(cmd.Key)
	for _, k := range cmd.ExtraKeys {
		if r.Shard(k) != s {
			return s, false
		}
	}
	return s, true
}

// jump is Jump Consistent Hash (Lamping & Veach, 2014): a uniform map from
// a 64-bit key hash to [0, buckets) where growing buckets by one reassigns
// only ~1/(buckets+1) of the keys — the stability the Router promises when
// a deployment's shard count is raised. Growth moves keys only into the
// new buckets and shrinking moves only the removed buckets' keys, which is
// what bounds a live resize's state handoff to the traffic that actually
// changes homes.
func jump(key uint64, buckets int) int {
	var b, j int64 = -1, 0
	for j < int64(buckets) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}
