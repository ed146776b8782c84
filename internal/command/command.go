// Package command defines the commands agreed upon by the consensus
// protocols and their conflict (non-commutativity) relation.
//
// Following §VI of the paper, the benchmark application is a replicated
// key-value store: a command carries an operation on a single key, and two
// commands conflict when they access the same key and at least one of them
// writes it. Batched commands (package batch) touch several keys; the
// conflict relation generalises to key-set intersection.
package command

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// Op enumerates the operations a command can perform. Enums start at 1 so
// the zero value is invalid and easy to catch.
type Op uint8

const (
	// OpPut writes a value to a key.
	OpPut Op = iota + 1
	// OpGet reads the value of a key.
	OpGet
	// OpAdd atomically adds a signed 64-bit delta (big-endian in Value)
	// to the key's integer value and returns the new value.
	OpAdd
	// OpNoop is an empty command used by recovery to finalise abandoned
	// instances. It conflicts with nothing.
	OpNoop
	// OpBatch marks a command whose Payload encodes a batch of inner
	// commands; Keys lists the union of the inner key sets.
	OpBatch
	// OpXCommit is one group's participant piece of a cross-shard
	// transaction (internal/xshard): its keys are the transaction's keys
	// on that group, and Payload encodes the xshard.Piece. Delivery of a
	// piece registers the group's vote in the node's commit table; the
	// transaction executes once every participating group delivered its
	// piece.
	OpXCommit
	// OpXAbort is a cross-shard abort marker: it conflicts with the
	// participant piece of its group, so consensus totally orders the
	// two and every node agrees which came first — marker first kills
	// the transaction, piece first makes the marker a no-op.
	OpXAbort
	// OpFence is a total-order barrier: it conflicts with every other
	// command of its consensus group, so the group's delivery order has a
	// single, replica-agreed cut point before and after it. The live
	// rebalancing layer (internal/rebalance) uses fences as resize
	// markers — Payload encodes the rebalance.Marker — so every replica
	// switches routing epochs at the exact same point in each group's
	// order.
	OpFence
)

var opNames = [...]string{OpPut: "PUT", OpGet: "GET", OpAdd: "ADD", OpNoop: "NOOP",
	OpBatch: "BATCH", OpXCommit: "XCOMMIT", OpXAbort: "XABORT", OpFence: "FENCE"}

// String implements fmt.Stringer.
func (o Op) String() string {
	if o == 0 || int(o) >= len(opNames) {
		return fmt.Sprintf("Op(%d)", uint8(o))
	}
	return opNames[o]
}

// ID uniquely identifies a command: the proposing node plus a local sequence
// number. Encoded inline (not a pointer) so it can key maps.
type ID struct {
	Node timestamp.NodeID
	Seq  uint64
}

// String implements fmt.Stringer.
func (id ID) String() string { return fmt.Sprintf("c%d.%d", id.Node, id.Seq) }

// IsZero reports whether the ID is unset.
func (id ID) IsZero() bool { return id == ID{} }

// ParseID parses an ID as String prints it: c<node>.<seq>, leading "c"
// optional. The canonical parser for every operator surface (/tracez,
// caesar-trace).
func ParseID(s string) (ID, error) {
	node, seq, ok := strings.Cut(strings.TrimPrefix(s, "c"), ".")
	if !ok {
		return ID{}, fmt.Errorf("want <node>.<seq>, e.g. c0.17")
	}
	nid, err := strconv.ParseInt(node, 10, 32)
	if err != nil || nid < 0 {
		return ID{}, fmt.Errorf("bad node %q", node)
	}
	sq, err := strconv.ParseUint(seq, 10, 64)
	if err != nil {
		return ID{}, fmt.Errorf("bad sequence %q", seq)
	}
	return ID{Node: timestamp.NodeID(nid), Seq: sq}, nil
}

// Command is a deterministic state-machine command.
type Command struct {
	ID    ID
	Op    Op
	Key   string
	Value []byte
	// ExtraKeys holds the additional keys of a batch command (Key holds
	// the first). Nil for ordinary commands.
	ExtraKeys []string
	// Payload carries opaque application data (e.g. an encoded batch).
	Payload []byte
	// Epoch is the routing epoch the command was submitted under in a
	// sharded deployment (internal/shard). Replicas compare it against
	// the epoch installed by the last delivered fence to decide whether
	// the command was routed to the right group; zero everywhere else.
	Epoch uint32
}

// Put builds a write command. The ID must be assigned by the proposer.
func Put(key string, value []byte) Command {
	return Command{Op: OpPut, Key: key, Value: value}
}

// Get builds a read command.
func Get(key string) Command {
	return Command{Op: OpGet, Key: key}
}

// Add builds an atomic-increment command.
func Add(key string, delta int64) Command {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(delta))
	return Command{Op: OpAdd, Key: key, Value: b[:]}
}

// AddDelta decodes an OpAdd command's delta.
func (c Command) AddDelta() int64 {
	if c.Op != OpAdd || len(c.Value) != 8 {
		return 0
	}
	return int64(binary.BigEndian.Uint64(c.Value))
}

// Noop builds an empty command that conflicts with nothing.
func Noop() Command {
	return Command{Op: OpNoop}
}

// Fence builds a total-order barrier carrying an opaque payload. A fence
// has no keys — it conflicts with every command of its group, not a key's
// worth of them.
func Fence(payload []byte) Command {
	return Command{Op: OpFence, Payload: payload}
}

// Keys returns every key the command touches. Noops and fences return nil
// (a fence orders against everything, not against a key set).
func (c Command) Keys() []string {
	if c.Op == OpNoop || c.Op == OpFence {
		return nil
	}
	if len(c.ExtraKeys) == 0 {
		return []string{c.Key}
	}
	keys := make([]string, 0, 1+len(c.ExtraKeys))
	keys = append(keys, c.Key)
	keys = append(keys, c.ExtraKeys...)
	return keys
}

// KeyUnion returns the distinct keys of cmds in first-seen order — the key
// set of a command that carries cmds as members (a batch, a cross-shard
// piece). The order is a function of cmds alone, so two calls build the
// same command. A transaction has a handful of keys: duplicates are found
// by scanning the output, not with a map.
func KeyUnion(cmds []Command) []string {
	var keys []string
	for _, c := range cmds {
		for _, k := range c.Keys() {
			if !slices.Contains(keys, k) {
				keys = append(keys, k)
			}
		}
	}
	return keys
}

// WithKeys returns c keyed by keys: the first is its Key, the rest its
// ExtraKeys. An empty set leaves c as it is.
func (c Command) WithKeys(keys []string) Command {
	if len(keys) > 0 {
		c.Key = keys[0]
		c.ExtraKeys = keys[1:]
	}
	return c
}

// IsWrite reports whether the command mutates state. Batches are treated as
// writes (they contain at least one write in practice; treating them as
// writes is conservative and safe), as are cross-shard pieces and abort
// markers — the marker must conflict with its piece to be ordered against
// it — and fences, which must be ordered against everything.
func (c Command) IsWrite() bool {
	switch c.Op {
	case OpPut, OpAdd, OpBatch, OpXCommit, OpXAbort, OpFence:
		return true
	}
	return false
}

// IsControl reports whether the op is a consensus-control command (a
// cross-shard participant piece or abort marker) that layered engines
// must propose and deliver as-is: buried inside another command's payload
// it would escape the delivery-time interception it exists for. Keep this
// predicate in sync when adding control ops, so generic layers (e.g.
// proposer-side batching) need no per-subsystem knowledge.
func (o Op) IsControl() bool {
	return o == OpXCommit || o == OpXAbort || o == OpFence
}

// Conflicts reports whether c and d are non-commutative (c ~ d in the
// paper): they share a key and at least one of the two writes it. A command
// never conflicts with itself, noops conflict with nothing, and fences
// conflict with everything (including other fences) — that is what makes a
// fence a total-order barrier within its consensus group.
func (c Command) Conflicts(d Command) bool {
	if c.ID == d.ID && !c.ID.IsZero() {
		return false
	}
	if c.Op == OpNoop || d.Op == OpNoop {
		return false
	}
	if c.Op == OpFence || d.Op == OpFence {
		return true
	}
	if !c.IsWrite() && !d.IsWrite() {
		return false
	}
	return keysIntersect(c.Keys(), d.Keys())
}

// keysIntersect reports whether the two key slices share an element. The
// fast path avoids allocation for the ubiquitous single-key case.
func keysIntersect(a, b []string) bool {
	if len(a) == 1 && len(b) == 1 {
		return a[0] == b[0]
	}
	if len(a) > len(b) {
		a, b = b, a
	}
	set := make(map[string]struct{}, len(a))
	for _, k := range a {
		set[k] = struct{}{}
	}
	for _, k := range b {
		if _, ok := set[k]; ok {
			return true
		}
	}
	return false
}

// String implements fmt.Stringer.
func (c Command) String() string {
	return fmt.Sprintf("%s{%s %q}", c.ID, c.Op, c.Key)
}

// Compare orders IDs by node, then sequence number.
func (id ID) Compare(o ID) int {
	if c := cmp.Compare(id.Node, o.Node); c != 0 {
		return c
	}
	return cmp.Compare(id.Seq, o.Seq)
}

// A set of command IDs — the predecessor sets (Pred) and whitelists of the
// paper — is a strictly ascending []ID (by Compare): that is the form it
// has in a record, in a message and on the wire, so nothing converts at a
// boundary. nil is the empty set and costs nothing; most commands conflict
// with nothing in flight. The sets are as deep as a key's conflict list
// (rarely more than a few IDs, 73 at most on the benchmark's hottest key),
// where a binary search and a memmove beat a hash.
//
// InsertID and RemoveID write into the slice they are given, so only the
// code that built a set may call them on it; UnionIDs never writes into
// either argument, and its result may share storage with one of them.

// SortIDs sorts ids in place (ascending by Compare) and returns it: the
// way to turn an arbitrary list of distinct IDs into a set.
func SortIDs(ids []ID) []ID {
	slices.SortFunc(ids, ID.Compare)
	return ids
}

// IsSortedIDs reports whether ids is strictly ascending — sorted and free of
// duplicates — which every set operation below assumes of its arguments.
func IsSortedIDs(ids []ID) bool {
	for i := 1; i < len(ids); i++ {
		if ids[i-1].Compare(ids[i]) >= 0 {
			return false
		}
	}
	return true
}

// ContainsID reports whether id is a member of set.
func ContainsID(set []ID, id ID) bool {
	_, found := slices.BinarySearchFunc(set, id, ID.Compare)
	return found
}

// InsertID adds id to set in place and returns the set; it allocates only
// when set has no spare capacity.
func InsertID(set []ID, id ID) []ID {
	i, found := slices.BinarySearchFunc(set, id, ID.Compare)
	if found {
		return set
	}
	return slices.Insert(set, i, id)
}

// RemoveID deletes id from set in place and returns the set.
func RemoveID(set []ID, id ID) []ID {
	i, found := slices.BinarySearchFunc(set, id, ID.Compare)
	if !found {
		return set
	}
	return slices.Delete(set, i, i+1)
}

// UnionIDs returns the union of a and b. It allocates only when a is not
// empty and lacks a member of b; the quorum replies a leader merges mostly
// agree, and then a (or, for an empty a, b) comes back as it is.
func UnionIDs(a, b []ID) []ID {
	if len(a) == 0 {
		return b
	}
	grown := false
	for _, id := range b {
		if ContainsID(a, id) {
			continue
		}
		if !grown { // from here on a is a private copy
			a, grown = append(make([]ID, 0, len(a)+len(b)), a...), true
		}
		a = InsertID(a, id)
	}
	return a
}
