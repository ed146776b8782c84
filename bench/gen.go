package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"

	"github.com/caesar-consensus/caesar/internal/shard"
)

// The load generator is owned by the benchmark: it deliberately does not
// use internal/workload or internal/harness, so a change to those cannot
// silently change what the nodes are fed. The nodes see only the
// generated commands; the seed never reaches them.

type opKind uint8

const (
	opPut opKind = iota + 1
	opRead
	opTx
)

func (k opKind) String() string {
	switch k {
	case opPut:
		return "put"
	case opRead:
		return "read"
	case opTx:
		return "tx"
	}
	return "?"
}

// genOp is one generated operation: what to do, where to submit it, and
// which keys (indices into the keyspace) it touches.
type genOp struct {
	kind      opKind
	node      int
	key, key2 int32
}

// keyspace is a workload's fixed key table; operations refer to keys by
// index so the per-operation record stays pointer-free.
type keyspace struct {
	keys []string
	// group is each key's consensus group under the workload's shard
	// count; the transaction draw needs two keys of different groups.
	group []int8
}

func newKeyspace(w *workload) *keyspace {
	ks := &keyspace{}
	if w.zipfKeys > 0 {
		for i := 0; i < w.zipfKeys; i++ {
			ks.keys = append(ks.keys, fmt.Sprintf("z%05d", i))
		}
	} else {
		for i := 0; i < sharedPool; i++ {
			ks.keys = append(ks.keys, fmt.Sprintf("s%03d", i))
		}
		for n := 0; n < w.nodes; n++ {
			for i := 0; i < privatePool; i++ {
				ks.keys = append(ks.keys, fmt.Sprintf("p%d-%04d", n, i))
			}
		}
	}
	router := shard.NewRouter(w.shards)
	ks.group = make([]int8, len(ks.keys))
	for i, k := range ks.keys {
		ks.group[i] = int8(router.Shard(k))
	}
	return ks
}

// generator produces a workload's operation stream from a seed. It is
// driven by the single pacing goroutine, so it needs no locking, and it
// reads no clock: the same seed yields the same stream.
type generator struct {
	w     *workload
	ks    *keyspace
	rng   *rand.Rand
	zipf  *rand.Zipf
	nodes []int // live submitters, round-robin
	n     int
	priv  []int // per-node cursor into its private pool
}

func newGenerator(w *workload, ks *keyspace, seed int64) *generator {
	g := &generator{w: w, ks: ks, rng: rand.New(rand.NewSource(seed)), priv: make([]int, w.nodes)}
	for i := 0; i < w.nodes; i++ {
		g.nodes = append(g.nodes, i)
	}
	if w.zipfKeys > 0 {
		g.zipf = rand.NewZipf(g.rng, zipfS, 1, uint64(w.zipfKeys/2-1))
	}
	return g
}

// dropNode removes a crashed node from the round-robin.
func (g *generator) dropNode(node int) {
	live := g.nodes[:0:0]
	for _, n := range g.nodes {
		if n != node {
			live = append(live, n)
		}
	}
	g.nodes = live
}

func (g *generator) next() genOp {
	op := genOp{kind: opPut, node: g.nodes[g.n%len(g.nodes)], key2: -1}
	g.n++
	if g.w.readPct > 0 || g.w.txPct > 0 {
		switch r := g.rng.Float64() * 100; {
		case r < g.w.readPct:
			op.kind = opRead
		case r < g.w.readPct+g.w.txPct:
			op.kind = opTx
		}
	}
	op.key = g.drawKey(op.node, op.kind)
	if op.kind == opTx {
		// Second key from a different consensus group, so the
		// transaction commits through the cross-shard table.
		for {
			op.key2 = g.drawKey(op.node, op.kind)
			if g.ks.group[op.key2] != g.ks.group[op.key] {
				break
			}
		}
	}
	return op
}

// drawKey picks a key index. The zipfian pool is drawn by rank and split
// by parity: even keys serve single-key operations, odd keys serve
// transactions. Mixing the two on one key runs into two gaps of the
// program that would make operations fail or replicas differ (a read of a
// key last written at a transaction's merged timestamp can exhaust its
// retries; a put ordered after a held transaction's piece can apply
// before it on some replicas) — see README, "Findings at the baseline".
func (g *generator) drawKey(node int, kind opKind) int32 {
	if g.zipf != nil {
		k := 2 * int32(g.zipf.Uint64())
		if kind == opTx {
			k++
		}
		return k
	}
	if g.rng.Float64()*100 < g.w.conflictPct {
		return int32(g.rng.Intn(sharedPool))
	}
	i := g.priv[node] % privatePool
	g.priv[node]++
	return int32(sharedPool + node*privatePool + i)
}

// opValue is the 16 bytes every write stores: the submitting node and the
// operation's index in the run. The oracle decodes stored values back to
// the operation that wrote them.
func opValue(node int, seq int64) []byte {
	v := make([]byte, 16)
	binary.BigEndian.PutUint64(v[:8], uint64(node))
	binary.BigEndian.PutUint64(v[8:], uint64(seq))
	return v
}

// decodeValue inverts opValue; ok is false for anything else.
func decodeValue(v []byte) (node int, seq int64, ok bool) {
	if len(v) != 16 {
		return 0, 0, false
	}
	return int(binary.BigEndian.Uint64(v[:8])), int64(binary.BigEndian.Uint64(v[8:])), true
}

// streamHash folds the first n operations of a workload's stream (kind,
// node, keys, value) into one number: the determinism test's fingerprint.
func streamHash(w *workload, seed int64, n int) uint64 {
	ks := newKeyspace(w)
	g := newGenerator(w, ks, seed)
	h := fnv.New64a()
	for i := 0; i < n; i++ {
		op := g.next()
		h.Write([]byte{byte(op.kind), byte(op.node)})
		h.Write([]byte(ks.keys[op.key]))
		if op.key2 >= 0 {
			h.Write([]byte(ks.keys[op.key2]))
		}
		h.Write(opValue(op.node, int64(i)))
	}
	return h.Sum64()
}
