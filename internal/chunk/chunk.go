// Package chunk allocates values of one type a chunk at a time and never
// hands a slot out twice. It is how the per-command path avoids one heap
// object per value. On the message path, a CAESAR replica takes the
// FastPropose, FastProposeReply and Stable it sends from its chunks, a
// wire.Decoder takes the ones it decodes (and the shard envelopes around
// them) from its own, and a shard endpoint wraps what it sends in
// envelopes the same way. On the command path, a protocol.Runtime takes
// every client Submission from one, a CAESAR history every record, and a
// CAESAR replica every coordinator it leads a command with and every
// delivery it hands a deferred applier chain as the command's completion.
// On the read path, a CAESAR replica takes every read fence a reader posts
// to its event loop from one (under a lock: readers call from their own
// goroutines). Slices carves short slices from shared chunks the same way:
// the ID lists a wire.Decoder decodes (one chunk per link) and the predecessor sets a CAESAR history computes (one chunk per
// history), each capped at its length so that an append reallocates.
// The key-value store does not use this package: its entries are never
// freed (the store has no delete), so it keeps its own never-freed tail,
// sized to fill its size class (internal/kvstore).
//
// A slot is never reused because a value may outlive the step that made
// it: a transport re-encodes a failed batch on its next connection, an
// in-process one hands the sender's pointer to every receiver, a trace
// keeps what was sent, a purged record stays on the history's open list
// until its next scan. Nothing may write to a slot once it has been handed
// on, but its sole consumer, which may drop the pointers it has read (a
// delivery once completed, a read fence once its event loop has read it).
// The price is that a live slot keeps its whole chunk reachable, and
// whatever its siblings point at, so only values that die with their
// step, or in creation order, like records, are worth chunking. An ID set
// lives as long as the message it came in or the record that keeps it,
// which die the same way. A value
// that may live on long after its neighbours — a hot key's conflict-list
// entry — would pin its chunk, and is recycled by its owner instead.
//
// A chunk asks for at most maxBytes: Size values of a small type, fewer
// of a large one (5 CAESAR records or coordinators, at 392 and 344
// bytes), so a straggler pins about 2 KiB and not 16 times its own size.
// With 16-slot chunks for records, coordinators, submissions and key
// entries alike, the benchmark's lan3-mixed4g read 0.45 to 0.69 MB more
// live heap.
//
// A chunk then fills the size class that request lands in. Go puts an
// 8-byte malloc header in front of every object over 512 bytes that holds
// pointers, so 16 Submissions (2,048 bytes) land in the 2,304-byte class,
// which holds 17 of them; Next hands out every slot the class holds, as
// slices.Grow rounds the capacity up. Measured with runtime.MemStats on
// go1.24 (amd64), slots asked for and handed out per allocation, and the
// share of the class that holds no value (the malloc header included):
//
//	type              size  asked  slots  class  unused
//	Submission         128     16     17  2,304   5.6 %
//	FastProposeReply    72     16     17  1,280   4.4 %
//	delivery            80     16     17  1,408   3.4 %
//	FastPropose        176     11     11  2,048   5.5 %
//	record             392      5      5  2,048   4.3 %
//	coordinator        344      5      5  1,792   4.0 %
//	Stable             168     12     12  2,048   1.6 %
//	shard.Envelope      24     16     16    384   0.0 %
//	evReadFence         56     16     18  1,024   1.6 %
//	[]command.ID        16    128    128  2,048   0.0 %
//
// A Slices chunk also leaves unused the tail too short for the next slice;
// a slice longer than a quarter chunk (32 IDs) is allocated alone, so that
// tail stays under a quarter.
//
// No chunk takes more bytes than the request alone would
// (TestChunksHoldAtMostMaxBytes). Those values die with their step or soon
// after, so the rest is short lived. The store's entries live as long as
// the store: 16 of them, 768 bytes, would land in the 896-byte class and
// waste 14.3 % of all entry memory, which is why the store sizes its own
// chunk.
package chunk

import (
	"slices"
	"unsafe"
)

const (
	// Size is the most values one allocation provides.
	Size = 16
	// maxBytes caps one allocation: a type larger than maxBytes/Size
	// comes maxBytes/size at a time (one, if it is larger still).
	maxBytes = 2048
)

// Of hands out zeroed values of T, a chunk to an allocation. The zero
// value is ready to use; it is not safe for concurrent use.
type Of[T any] struct {
	free []T // the unused tail of the current chunk
}

// Next returns a zeroed T no one else has been given.
func (c *Of[T]) Next() *T {
	if len(c.free) == 0 {
		// Grow rounds the capacity up to what the allocation's size class
		// holds: the slots that would otherwise be its waste.
		c.free = slices.Grow([]T(nil), perChunk[T]())
		c.free = c.free[:cap(c.free)]
	}
	v := &c.free[0]
	c.free = c.free[1:]
	return v
}

// Slices carves short []T from shared chunks of maxBytes, and never hands
// an element out twice. The zero value is ready to use; it is not safe for
// concurrent use.
type Slices[T any] struct {
	free []T // the unused tail of the current chunk
}

// Make returns a zeroed []T of length n no one else has been given, nil
// for n = 0. Its capacity is n, so an append reallocates and never writes
// into the next slice. A slice longer than a quarter chunk is allocated
// alone.
func (c *Slices[T]) Make(n int) []T {
	per := perSlice[T]()
	switch {
	case n == 0:
		return nil
	case n > per/4:
		return make([]T, n)
	case len(c.free) < n:
		c.free = slices.Grow([]T(nil), per)
		c.free = c.free[:cap(c.free)]
	}
	s := c.free[:n:n]
	c.free = c.free[n:]
	return s
}

// perSlice is how many elements of T one chunk of slices holds: as many
// as fit in maxBytes, and at least one.
func perSlice[T any]() int {
	var v T
	return max(1, maxBytes/max(1, int(unsafe.Sizeof(v))))
}

// perChunk is how many values of T one chunk holds: Size, or as many as
// fit in maxBytes, and at least one.
func perChunk[T any]() int {
	var v T
	size := int(unsafe.Sizeof(v))
	if size == 0 {
		return Size
	}
	return max(1, min(Size, maxBytes/size))
}
