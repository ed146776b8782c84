//go:build !race

package xshard

import (
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/memnet"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/shard"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/transport"
)

// The race detector allocates on its own, hence the build tag.

// TestPayloadDecodeAllocs gates what a delivery costs on its group's event
// loop: a two-put piece is the Piece, its two lists and a key and a value
// per put; an abort marker is the Abort. Reading a piece's XID costs
// nothing.
func TestPayloadDecodeAllocs(t *testing.T) {
	piece, marker := unhex(t, goldenPiece), unhex(t, goldenAbort)
	if avg := testing.AllocsPerRun(200, func() { DecodePiece(piece) }); avg > 7 {
		t.Errorf("DecodePiece of a two-put piece: %.1f allocs, want <= 7", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { DecodeAbort(marker) }); avg > 1 {
		t.Errorf("DecodeAbort: %.1f allocs, want <= 1", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { PieceXID(piece) }); avg != 0 {
		t.Errorf("PieceXID: %.1f allocs, want 0", avg)
	}
}

// TestTransactionRegistrationAllocs gates what a two-group transaction
// costs a node's commit table from its first piece to its execution, both
// pieces delivered through their groups' appliers. A participant decodes
// the body once (its two lists and a key and a value per put) and keeps
// an entry, its slots and its key set; the coordinator's Expect keeps the
// same three and its pieces decode nothing. Each side counts the
// executor's one allocation.
func TestTransactionRegistrationAllocs(t *testing.T) {
	const runs = 200
	for _, c := range []struct {
		name   string
		self   timestamp.NodeID
		budget float64
	}{
		{"participant", 1, 13},
		{"coordinator", 0, 7},
	} {
		exec := &countingExec{}
		tb := NewTable(TableConfig{Self: c.self, Exec: exec, ResolveTimeout: time.Hour}, nil)
		apps := [2]protocol.TimestampedApplier{tb.Applier(0, exec), tb.Applier(3, exec)}
		txs := twoGroupTxs(runs+1, 0)
		done := protocol.DoneFunc(func(protocol.Result) {})
		i := 0
		avg := testing.AllocsPerRun(runs, func() {
			tx := &txs[i]
			if tx.xid.Node == c.self {
				tb.Expect(tx.xid, tx.groups, tx.ops, tx.payload, 0, done)
			}
			tx.deliver(apps, uint64(i+1))
			i++
		})
		if exec.n != runs+1 || tb.Pending() != 0 {
			t.Fatalf("%s: %d of %d transactions executed, %d pending", c.name, exec.n, runs+1, tb.Pending())
		}
		t.Logf("%s: %.1f allocations per transaction", c.name, avg)
		if avg > c.budget {
			t.Errorf("%s: a two-group transaction allocates %.1f in the table, want <= %.0f", c.name, avg, c.budget)
		}
	}
}

// nopGroup is a consensus group that accepts every command at once.
type nopGroup struct{}

func (nopGroup) Submit(_ command.Command, done protocol.DoneFunc) {
	if done != nil {
		done(protocol.Result{})
	}
}
func (nopGroup) Start() {}
func (nopGroup) Stop()  {}

// TestSubmitAllocs gates what Engine.Submit costs the submitting node
// over groups that accept at once. A single-group put goes to its group
// with the caller's callback and allocates nothing. A two-group
// transaction pays for what it keeps — the unpacked members, the groups,
// the payload, each piece's keys, the table entry — plus one retry
// callback and one piece callback.
func TestSubmitAllocs(t *testing.T) {
	net := memnet.New(memnet.Config{Nodes: 1})
	defer net.Close()
	history := shard.NewEpochs()
	history.Install(0, 4)
	tb := NewTable(TableConfig{Self: 0, Exec: &countingExec{}, ResolveTimeout: time.Hour}, history)
	eng := NewEngine(net.Endpoint(0), make([]int32, 4), tb, func(int, transport.Endpoint) protocol.Engine { return nopGroup{} })
	defer eng.Stop()

	keys := keysInGroups(eng.Router(), 0, 1)
	v := []byte("0123456789abcdef")
	done := protocol.DoneFunc(func(protocol.Result) {})
	for _, c := range []struct {
		name   string
		cmd    command.Command
		budget float64
	}{
		{"single-group put", command.Put(keys[0], v), 0},
		{"two-group transaction", txn(t, command.Put(keys[0], v), command.Put(keys[1], v)), 16},
	} {
		avg := testing.AllocsPerRun(200, func() { eng.Submit(c.cmd, done) })
		t.Logf("%s: %.1f allocations per Submit", c.name, avg)
		if avg > c.budget {
			t.Errorf("Submit of a %s allocates %.1f, want <= %.0f", c.name, avg, c.budget)
		}
	}
}

// TestWaitSettledImmediateAllocatesNothing: a read that no held
// transaction blocks — the table is empty, or holds only other keys or
// transactions above the read point — gets a nil channel and costs no
// allocation.
func TestWaitSettledImmediateAllocatesNothing(t *testing.T) {
	tb := newTestTable(&recordingExec{})
	keys := []string{"a"}
	check := func(what string) {
		t.Helper()
		if avg := testing.AllocsPerRun(200, func() {
			if tb.WaitSettled(keys, ts(10, 0)) != nil {
				t.Fatalf("%s: the read parked", what)
			}
		}); avg != 0 {
			t.Errorf("%s: WaitSettled allocates %.1f, want 0", what, avg)
		}
	}
	check("empty table")
	x1, x2 := XID{Node: 1, Seq: 1}, XID{Node: 1, Seq: 2}
	tb.registerPiece(0, x1, encodePiece(x1, []int32{0, 1}, testOps("x", "y")), ts(5, 0), 0, command.ID{})
	tb.registerPiece(0, x2, encodePiece(x2, []int32{0, 1}, testOps("a", "b")), ts(50, 0), 0, command.ID{})
	check("held transactions on other keys and above the read point")
}
