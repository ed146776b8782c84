// Package flight is the node's flight recorder and stall watchdog — the
// diagnosis layer above the metrics registry (internal/obs) and the
// command trace ring (internal/trace).
//
// The Recorder is an always-on, bounded, structured event journal for the
// node-level events the per-command trace ring does not carry: leadership
// and recovery activity, stable retransmission, resize/epoch installs,
// WAL snapshots, watchdog trips. Every event carries a monotonic per-node
// sequence number, so a dumped tail is totally ordered even when the
// injected clock stands still (fake-clock tests, frozen deployments).
// Recording is one short critical section per event and events are rare
// (protocol milestones, not per-command work), so the recorder is safe to
// leave on everywhere; a nil *Recorder drops everything so call sites
// need no guards.
//
// The Watchdog (watchdog.go) periodically samples stall probes — oldest
// held cross-shard transaction, oldest parked read fence, oldest
// unacknowledged submitted command — against thresholds, and on a trip
// assembles a diagnosis bundle from its registered sections: the wedged
// command's traced history, the commit table's pending detail, the
// rebalance coordinator's transition state, the flight-recorder tail and
// a goroutine profile. The bundle is what /debugz and the
// Options.OnStall callback hand to operators and to the future
// autoscaler/chaos harness.
package flight

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// Kind labels a node-level event.
type Kind uint8

// The node-level milestones the recorder journals.
const (
	// KindRecovery: a recovery prepare was started for a command whose
	// leader is suspected, restarted or wedged.
	KindRecovery Kind = iota + 1
	// KindSuspect: the failure detector suspected a peer.
	KindSuspect
	// KindStuck: age-based stuck-command recovery scheduled a takeover
	// for a command whose leader still looks alive.
	KindStuck
	// KindRetransmit: a command leader re-sent Stable decisions to
	// replicas missing delivery acknowledgements.
	KindRetransmit
	// KindResize: a shard-count resize was initiated at this node.
	KindResize
	// KindEpoch: a routing epoch was installed (a resize fence's marker
	// took effect here).
	KindEpoch
	// KindSnapshot: the write-ahead log cut a snapshot and truncated the
	// covered segments.
	KindSnapshot
	// KindStall: the watchdog tripped — at least one stall probe
	// exceeded its threshold.
	KindStall
	// KindClear: every previously tripped probe went back under its
	// threshold.
	KindClear
	// KindNode: node lifecycle (started, recovered, stopping).
	KindNode
	// KindAudit: the cross-replica auditor proved a divergence involving
	// this node (internal/audit).
	KindAudit
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindRecovery:
		return "recovery"
	case KindSuspect:
		return "suspect"
	case KindStuck:
		return "stuck"
	case KindRetransmit:
		return "retransmit"
	case KindResize:
		return "resize"
	case KindEpoch:
		return "epoch"
	case KindSnapshot:
		return "wal-snapshot"
	case KindStall:
		return "stall"
	case KindClear:
		return "stall-clear"
	case KindNode:
		return "node"
	case KindAudit:
		return "audit"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// NoGroup marks an event that is not scoped to one consensus group.
const NoGroup int32 = -1

// Event is one journaled node-level event.
type Event struct {
	// Seq is the recorder's monotonic sequence number; it totally orders
	// the journal even when the clock stands still.
	Seq uint64
	// At is the event's injected-clock instant.
	At time.Time
	// Node is the recording node.
	Node timestamp.NodeID
	// Kind labels the event.
	Kind Kind
	// Group is the consensus group the event is scoped to, or NoGroup.
	Group int32
	// Cmd is the command the event concerns; zero when not
	// command-shaped (epoch installs, snapshots).
	Cmd command.ID
	// Detail is the human-readable specifics.
	Detail string
}

// String implements fmt.Stringer.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d %s %v %s", e.Seq, e.At.Format("15:04:05.000000"), e.Node, e.Kind)
	if e.Group != NoGroup {
		fmt.Fprintf(&b, " g%d", e.Group)
	}
	if e.Cmd != (command.ID{}) {
		fmt.Fprintf(&b, " cmd=%v", e.Cmd)
	}
	if e.Detail != "" {
		b.WriteByte(' ')
		b.WriteString(e.Detail)
	}
	return b.String()
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

// Recorder is the bounded event journal. The zero value is unusable;
// call New. A nil *Recorder accepts every call and records nothing.
type Recorder struct {
	mu   sync.Mutex
	buf  []Event
	next int
	full bool
	seq  uint64
	self timestamp.NodeID
	now  func() time.Time
}

// New returns a recorder holding up to capacity events attributed to
// self; capacity <= 0 selects the default (1024).
func New(self timestamp.NodeID, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Recorder{buf: make([]Event, capacity), self: self, now: time.Now}
}

// SetNow installs the clock events are stamped from, aligning the
// journal with a node stack's injected clock; nil restores the wall
// clock. Call before recording.
func (r *Recorder) SetNow(now func() time.Time) {
	if r == nil {
		return
	}
	if now == nil {
		now = time.Now
	}
	r.mu.Lock()
	r.now = now
	r.mu.Unlock()
}

// Record journals one event. Safe for concurrent use; nil recorders
// drop everything. group is a consensus group index or NoGroup; cmd is
// the concerned command's ID or zero.
func (r *Recorder) Record(kind Kind, group int32, cmd command.ID, format string, args ...any) {
	if r == nil {
		return
	}
	detail := format
	if len(args) > 0 {
		detail = fmt.Sprintf(format, args...)
	}
	r.mu.Lock()
	r.seq++
	r.buf[r.next] = Event{
		Seq:    r.seq,
		At:     r.now(),
		Node:   r.self,
		Kind:   kind,
		Group:  group,
		Cmd:    cmd,
		Detail: detail,
	}
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Eventf journals a group-less, command-less event.
func (r *Recorder) Eventf(kind Kind, format string, args ...any) {
	r.Record(kind, NoGroup, command.ID{}, format, args...)
}

// Dump snapshots the journal tail, oldest-first. The first returned
// event's Seq tells how much history was evicted (Seq 1 means none).
func (r *Recorder) Dump() []Event {
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

// Tail returns the newest n events, oldest-first; none for n <= 0.
func (r *Recorder) Tail(n int) []Event {
	if n <= 0 {
		return nil
	}
	all := r.Dump()
	if len(all) > n {
		all = all[len(all)-n:]
	}
	return all
}

// Appended returns the total number of events ever journaled (the
// current maximum Seq).
func (r *Recorder) Appended() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}
