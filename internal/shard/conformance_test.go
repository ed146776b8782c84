package shard_test

// Black-box conformance: a sharded CAESAR deployment is itself a
// protocol.Engine and must satisfy the same Generalized Consensus contract
// as a single group — commands on the same key keep one cluster-wide order
// (they always hash to the same shard), commuting commands may interleave.
// The groups here apply straight to the state machine: single-key traffic
// is routing alone and needs no commit table in the chain
// (internal/xshard's conformance runs the full chain).

import (
	"testing"

	"github.com/caesar-consensus/caesar/internal/caesar"
	"github.com/caesar-consensus/caesar/internal/enginetest"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/shard"
	"github.com/caesar-consensus/caesar/internal/transport"
	"github.com/caesar-consensus/caesar/internal/xshard"
)

func TestShardedConformance(t *testing.T) {
	enginetest.Run(t, func(ep transport.Endpoint, app protocol.TimestampedAtomicApplier) protocol.Engine {
		history := shard.NewEpochs()
		history.Install(0, 4)
		table := xshard.NewTable(xshard.TableConfig{Self: ep.Self(), Exec: app}, history)
		return xshard.NewEngine(ep, make([]int32, 4), table, func(_ int, sep transport.Endpoint) protocol.Engine {
			return caesar.New(sep, protocol.Sync(app), caesar.Config{HeartbeatInterval: -1})
		})
	})
}
