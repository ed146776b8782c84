// Package chunk allocates values of one type Size at a time and never
// hands a slot out twice. It is how the message path avoids one heap
// object per message: a CAESAR replica takes the FastPropose,
// FastProposeReply and Stable it sends from its chunks, a wire.Decoder
// takes the ones it decodes (and the shard envelopes around them) from its
// own, and a shard endpoint wraps what it sends in envelopes the same way.
//
// A slot is never reused because a message may outlive the step that sent
// or received it: a transport re-encodes a failed batch on its next
// connection, an in-process one hands the sender's pointer to every
// receiver, a trace keeps what was sent. Nothing may write to a slot once
// it has been handed on. The price is that a live slot keeps its whole
// chunk reachable, and whatever its Size-1 siblings point at, so only
// values that die with the step that handles them are worth chunking.
package chunk

// Size is how many values one allocation provides.
const Size = 16

// Of hands out zeroed values of T, Size to an allocation. The zero value
// is ready to use; it is not safe for concurrent use.
type Of[T any] struct {
	free []T // the unused tail of the current chunk
}

// Next returns a zeroed T no one else has been given.
func (c *Of[T]) Next() *T {
	if len(c.free) == 0 {
		c.free = make([]T, Size)
	}
	v := &c.free[0]
	c.free = c.free[1:]
	return v
}
