package flight

import (
	"strings"
	"testing"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
)

func fakeClock(start time.Time) (func() time.Time, func(time.Duration)) {
	cur := start
	return func() time.Time { return cur }, func(d time.Duration) { cur = cur.Add(d) }
}

func TestRecorderSeqAndDump(t *testing.T) {
	r := New(1, 4)
	now, _ := fakeClock(time.Unix(100, 0))
	r.SetNow(now)
	for i := 0; i < 3; i++ {
		r.Eventf(KindNode, "event %d", i)
	}
	got := r.Dump()
	if len(got) != 3 {
		t.Fatalf("Dump len = %d, want 3", len(got))
	}
	for i, e := range got {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d Seq = %d, want %d", i, e.Seq, i+1)
		}
		if e.Node != 1 {
			t.Fatalf("event %d Node = %v, want p1", i, e.Node)
		}
	}
	if r.Appended() != 3 {
		t.Fatalf("Appended = %d, want 3", r.Appended())
	}
}

func TestRecorderWrap(t *testing.T) {
	r := New(2, 4)
	for i := 0; i < 10; i++ {
		r.Eventf(KindRetransmit, "event %d", i)
	}
	got := r.Dump()
	if len(got) != 4 {
		t.Fatalf("Dump len = %d, want capacity 4", len(got))
	}
	// Oldest-first, and the first event's Seq reveals the eviction.
	if got[0].Seq != 7 || got[3].Seq != 10 {
		t.Fatalf("Dump seqs = [%d..%d], want [7..10]", got[0].Seq, got[3].Seq)
	}
	tail := r.Tail(2)
	if len(tail) != 2 || tail[0].Seq != 9 || tail[1].Seq != 10 {
		t.Fatalf("Tail(2) = %v, want seqs 9,10", tail)
	}
	for _, n := range []int{0, -1, -5} {
		if tail := r.Tail(n); len(tail) != 0 {
			t.Fatalf("Tail(%d) = %v, want no events", n, tail)
		}
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Record(KindStall, NoGroup, command.ID{}, "dropped")
	r.Eventf(KindClear, "dropped")
	r.SetNow(nil)
	if got := r.Dump(); got != nil {
		t.Fatalf("nil Dump = %v, want nil", got)
	}
	if r.Appended() != 0 {
		t.Fatalf("nil Appended = %d, want 0", r.Appended())
	}
}

func TestEventString(t *testing.T) {
	e := Event{
		Seq:    7,
		At:     time.Unix(0, 0),
		Node:   3,
		Kind:   KindRecovery,
		Group:  2,
		Cmd:    command.ID{Node: 1, Seq: 42},
		Detail: "ballot 9",
	}
	s := e.String()
	for _, want := range []string{"#7", "p3", "recovery", "g2", "ballot 9"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Event.String() = %q, missing %q", s, want)
		}
	}
	// Group-less, command-less events omit those fields.
	s = Event{Seq: 1, Node: 1, Kind: KindNode, Group: NoGroup, Detail: "started"}.String()
	if strings.Contains(s, "g-1") || strings.Contains(s, "cmd=") {
		t.Fatalf("group-less Event.String() = %q, should omit group and cmd", s)
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{KindRecovery, KindSuspect, KindStuck, KindRetransmit,
		KindResize, KindEpoch, KindSnapshot, KindStall, KindClear, KindNode}
	seen := make(map[string]bool)
	for _, k := range kinds {
		s := k.String()
		if strings.HasPrefix(s, "Kind(") {
			t.Fatalf("Kind %d has no name", k)
		}
		if seen[s] {
			t.Fatalf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if got := Kind(200).String(); got != "Kind(200)" {
		t.Fatalf("unknown kind String = %q", got)
	}
}

func TestRecorderInjectedClock(t *testing.T) {
	r := New(1, 8)
	now, advance := fakeClock(time.Unix(500, 0).UTC())
	r.SetNow(now)
	r.Eventf(KindNode, "first")
	advance(3 * time.Second)
	r.Eventf(KindNode, "second")
	got := r.Dump()
	if d := got[1].At.Sub(got[0].At); d != 3*time.Second {
		t.Fatalf("event spacing = %v, want 3s (injected clock)", d)
	}
}
