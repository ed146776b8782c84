package shard_test

// Black-box conformance: a sharded CAESAR deployment is itself a
// protocol.Engine and must satisfy the same Generalized Consensus contract
// as a single group — commands on the same key keep one cluster-wide order
// (they always hash to the same shard), commuting commands may interleave.

import (
	"testing"

	"github.com/caesar-consensus/caesar/internal/caesar"
	"github.com/caesar-consensus/caesar/internal/enginetest"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/shard"
	"github.com/caesar-consensus/caesar/internal/transport"
)

func TestShardedConformance(t *testing.T) {
	enginetest.Run(t, func(ep transport.Endpoint, app protocol.TimestampedAtomicApplier) protocol.Engine {
		return shard.NewAt(ep, make([]int32, 4), func(_ int, sep transport.Endpoint) protocol.Engine {
			return caesar.New(sep, app, caesar.Config{HeartbeatInterval: -1})
		})
	})
}
