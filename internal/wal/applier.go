package wal

import (
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/xshard"
)

// GroupApplier wraps one consensus group's applier chain with logging:
// each delivered command is made durable (group commit) before the inner
// apply runs and the client is acknowledged. It sits *below* the
// cross-shard and rebalancing interception layers, so it records exactly
// what this node applies, in local apply order — which is what replay
// must reproduce.
//
// The returned chain's one entry, ApplyDeferred, is what CAESAR's event
// loop calls: it appends the record and returns, and the log's completer
// applies and completes the command after the sync that covers it, at
// the record's position in the log. A refused append (closed log during
// shutdown, the sticky failure of a dying disk) completes the command
// with the error instead: it is in no log, so it is neither applied nor
// acknowledged, and the restart path re-delivers it.
func (l *Log) GroupApplier(group int, inner protocol.TimestampedApplier) protocol.Applier {
	return &groupApplier{l: l, group: int32(group), inner: inner}
}

type groupApplier struct {
	l     *Log
	group int32
	inner protocol.TimestampedApplier
}

// ApplyDeferred implements protocol.Applier: it never blocks.
func (a *groupApplier) ApplyDeferred(cmd command.Command, ts timestamp.Timestamp, done func(protocol.Result)) {
	e := pendingRec{cmd: cmd, ts: ts, inner: a.inner, done: done}
	if err := a.l.appendCommand(a.group, e); err != nil {
		done(protocol.Result{Err: err})
	}
}

// TxApplier returns the commit-table hook that logs an executed
// cross-shard transaction and applies its ops atomically through exec
// once the record is durable. Wire it as xshard.TableConfig.ApplyTx.
func (l *Log) TxApplier(exec protocol.TimestampedAtomicApplier) func(xshard.XID, timestamp.Timestamp, []command.Command, func(error)) {
	return func(xid xshard.XID, merged timestamp.Timestamp, ops []command.Command, done func(error)) {
		l.LogTx(xid, merged, ops, func() { exec.ApplyAllAt(ops, merged) }, done)
	}
}
