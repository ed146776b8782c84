// Package trace is a lightweight protocol event recorder: replicas append
// fixed-size events into a lock-protected ring buffer, and tests or
// operators snapshot it to reconstruct what a command went through
// (propose → votes → retry → stable → deliver → recover). Tracing is
// opt-in per replica and cheap enough to leave on outside hot benchmarks.
package trace

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// Kind labels a protocol event.
type Kind uint8

// The protocol milestones CAESAR records.
const (
	// KindPropose: the replica became a command's leader.
	KindPropose Kind = iota + 1
	// KindFastOK / KindNack: acceptor answered a proposal.
	KindFastOK
	KindNack
	// KindWaitStart / KindWaitEnd: §IV-A wait condition engaged/released.
	KindWaitStart
	KindWaitEnd
	// KindSlowPropose: leader fell back to the slow proposal phase.
	KindSlowPropose
	// KindRetry: leader retried with a higher timestamp.
	KindRetry
	// KindStable: the decision reached this replica.
	KindStable
	// KindDeliver: the command executed here.
	KindDeliver
	// KindRecover: a recovery prepare was started for the command.
	KindRecover
	// KindPurge: the command's metadata was garbage collected.
	KindPurge
	// KindFsync: the command's write-ahead log record became durable
	// (its group-commit batch fsynced) before its apply ran
	// (internal/wal).
	KindFsync
	// KindAck: the command's client callback fired on the submitting
	// node — the end of the client-visible lifecycle.
	KindAck
	// KindTxHold / KindTxExec / KindTxAbort: a cross-shard transaction
	// piece registered in the commit table, and the transaction then
	// executed atomically or was killed (internal/xshard). Exec/abort
	// events are recorded against each piece's command ID so a piece's
	// CommandHistory carries its transaction's outcome.
	KindTxHold
	KindTxExec
	KindTxAbort
	// KindReadPark / KindReadRelease: a local read fence parked on this
	// command, and the command's apply released it (internal/reads).
	KindReadPark
	KindReadRelease
	// KindFence: a resize fence marker was applied by a consensus group
	// (internal/rebalance); the event's timestamp sequence carries the
	// target epoch.
	KindFence
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindPropose:
		return "propose"
	case KindFastOK:
		return "fast-ok"
	case KindNack:
		return "nack"
	case KindWaitStart:
		return "wait-start"
	case KindWaitEnd:
		return "wait-end"
	case KindSlowPropose:
		return "slow-propose"
	case KindRetry:
		return "retry"
	case KindStable:
		return "stable"
	case KindDeliver:
		return "deliver"
	case KindRecover:
		return "recover"
	case KindPurge:
		return "purge"
	case KindFsync:
		return "fsync"
	case KindAck:
		return "ack"
	case KindTxHold:
		return "tx-hold"
	case KindTxExec:
		return "tx-exec"
	case KindTxAbort:
		return "tx-abort"
	case KindReadPark:
		return "read-park"
	case KindReadRelease:
		return "read-release"
	case KindFence:
		return "fence"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one protocol milestone.
type Event struct {
	// Seq is the recording ring's append sequence number, assigned by
	// Append. It totally orders one node's events even when several share
	// a wall-clock instant, which is what the cross-node merge
	// (MergeTimelines) relies on instead of comparing clocks across
	// machines.
	Seq  uint64
	At   time.Time
	Node timestamp.NodeID
	Kind Kind
	Cmd  command.ID
	Time timestamp.Timestamp
}

// String implements fmt.Stringer.
func (e Event) String() string {
	return fmt.Sprintf("%s %v %s cmd=%v ts=%v",
		e.At.Format("15:04:05.000000"), e.Node, e.Kind, e.Cmd, e.Time)
}

// Ring is a bounded event recorder; once full it overwrites the oldest
// events. The zero value is unusable; call NewRing.
type Ring struct {
	mu   sync.Mutex
	buf  []Event
	next int
	full bool
	seq  uint64
	now  func() time.Time
}

// NewRing returns a recorder holding up to capacity events.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = 4096
	}
	return &Ring{buf: make([]Event, capacity), now: time.Now}
}

// SetNow replaces the clock Record stamps events from (time.Now), aligning
// the ring with a node stack's injected clock. Call before recording.
func (r *Ring) SetNow(now func() time.Time) {
	if r != nil {
		r.now = now
	}
}

// Append records one event, stamping its per-ring Seq. Safe for
// concurrent use; nil rings drop everything so call sites need no
// guards.
func (r *Ring) Append(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.seq++
	e.Seq = r.seq
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Record is Append with the fields spelled out and the timestamp taken
// now, on the ring's clock (SetNow).
func (r *Ring) Record(node timestamp.NodeID, kind Kind, cmd command.ID, ts timestamp.Timestamp) {
	if r == nil {
		return
	}
	r.Append(Event{At: r.now(), Node: node, Kind: kind, Cmd: cmd, Time: ts})
}

// Snapshot returns the recorded events oldest-first.
func (r *Ring) Snapshot() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		out := make([]Event, r.next)
		copy(out, r.buf[:r.next])
		return out
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Len returns the number of events currently held.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Stats reports how many events were ever appended and whether the ring
// has wrapped (overwritten its oldest events). A lookup miss on a wrapped
// ring is ambiguous — the command may have been evicted — while a miss on
// an unwrapped ring proves the command was never traced here.
func (r *Ring) Stats() (appended uint64, wrapped bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq, r.full
}

// CommandHistory extracts one command's events, oldest-first.
func (r *Ring) CommandHistory(id command.ID) []Event {
	var out []Event
	for _, e := range r.Snapshot() {
		if e.Cmd == id {
			out = append(out, e)
		}
	}
	return out
}

// Format renders events one per line.
func Format(events []Event) string {
	var b strings.Builder
	for _, e := range events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
