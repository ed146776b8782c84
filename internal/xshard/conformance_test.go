package xshard_test

// Black-box conformance: the sharded engine, with the commit table in every
// group's chain, is a protocol.Engine and must keep the full Generalized
// Consensus contract for single-key traffic — the table only intercepts
// transaction pieces and markers, everything else passes through to the
// key's group untouched.

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
		return xshard.NewEngine(ep, make([]int32, 4), table, func(g int, sep transport.Endpoint) protocol.Engine {
			return caesar.New(sep, protocol.Sync(table.Applier(g, app)), caesar.Config{HeartbeatInterval: -1})
		})
	})
}
