package xshard_test

// Black-box conformance: the cross-shard engine is a protocol.Engine and
// must keep the full Generalized Consensus contract for single-key
// traffic — the coordinator layer only intercepts multi-group commands,
// everything else passes through the sharded deployment untouched.

import (
	"testing"

	"github.com/caesar-consensus/caesar/internal/caesar"
	"github.com/caesar-consensus/caesar/internal/enginetest"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/shard"
	"github.com/caesar-consensus/caesar/internal/transport"
	"github.com/caesar-consensus/caesar/internal/xshard"
)

func TestCrossShardEngineConformance(t *testing.T) {
	enginetest.Run(t, func(ep transport.Endpoint, app protocol.TimestampedAtomicApplier) protocol.Engine {
		history := shard.NewEpochs()
		history.Install(0, 4)
		table := xshard.NewTable(xshard.TableConfig{Self: ep.Self(), Exec: app}, history)
		inner := shard.NewAt(ep, make([]int32, 4), func(g int, sep transport.Endpoint) protocol.Engine {
			return caesar.New(sep, table.Applier(g, app), caesar.Config{HeartbeatInterval: -1})
		})
		return xshard.New(inner, table)
	})
}
