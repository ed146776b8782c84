package wal

import (
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/trace"
	"github.com/caesar-consensus/caesar/internal/xshard"
)

// GroupApplier wraps one consensus group's applier chain with logging:
// each delivered command is made durable (group commit) before the inner
// apply runs and the client is acknowledged. It sits *below* the
// cross-shard and rebalancing interception layers, so it records exactly
// what this node applies, in local apply order — which is what replay
// must reproduce.
//
// On a closed log (node shutting down) the apply is skipped and nil
// returned: the command is treated like one delivered an instant after
// the crash — not yet durable, so never acknowledged — and the restart
// path re-delivers it.
func (l *Log) GroupApplier(group int, inner protocol.TimestampedApplier) protocol.TimestampedApplier {
	return &groupApplier{l: l, group: int32(group), inner: inner}
}

type groupApplier struct {
	l     *Log
	group int32
	inner protocol.TimestampedApplier
}

func (a *groupApplier) Apply(cmd command.Command) []byte {
	return a.ApplyAt(cmd, timestamp.Zero)
}

func (a *groupApplier) ApplyAt(cmd command.Command, ts timestamp.Timestamp) []byte {
	v, err := a.l.LogCommand(a.group, cmd, ts, func() []byte {
		// The record is durable here (the group-commit batch covering it
		// has synced); the apply is about to run.
		a.l.opts.Trace.Record(a.l.opts.Self, trace.KindFsync, cmd.ID, ts)
		return a.inner.ApplyAt(cmd, ts)
	})
	if err != nil {
		// ErrClosed during shutdown: drop, see type comment. Any other
		// error means the durability contract is broken; the value
		// returned is nil either way and the command is never acked as
		// durable. Surfacing richer errors through the Applier interface
		// would change every engine for a path that only a dying disk
		// takes.
		return nil
	}
	return v
}

// TxApplier returns the commit-table hook that logs an executed
// cross-shard transaction and then applies its ops atomically through
// exec. Wire it as xshard.TableConfig.ApplyTx.
func (l *Log) TxApplier(exec protocol.TimestampedAtomicApplier) func(xshard.XID, timestamp.Timestamp, []command.Command) {
	return func(xid xshard.XID, merged timestamp.Timestamp, ops []command.Command) {
		_ = l.LogTx(xid, merged, ops, func() {
			exec.ApplyAllAt(ops, merged)
		})
	}
}
