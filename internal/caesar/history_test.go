package caesar

// The conflict index (history.byKey and the scans over it) and the purge
// fence its entries carry against a brute-force scan of history.recs and of
// every purge ever made, under seeded random operation sequences (and
// FuzzConflictIndex over the seed); plus BenchmarkConflictIndex, which
// keeps on record the per-key depth at which the sorted slices would lose
// to a tree, and BenchmarkPredecessors.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// purgedCmd is what the naive fencedAbove remembers of a purged record.
type purgedCmd struct {
	cmd command.Command
	ts  timestamp.Timestamp
}

// indexModel drives a history and answers every index query the slow way.
type indexModel struct {
	t      *testing.T
	rng    *rand.Rand
	h      *history
	live   []*record // h.recs in creation order, so choices replay from the seed
	purged []purgedCmd
	seq    uint64
	steps  int
	// top is the highest purged timestamp. base is where fresh stamps
	// start: drain raises it past top, as a replica's clock observes every
	// timestamp it acks.
	top  timestamp.Timestamp
	base uint64
	// raised and emptied count the GC ticks that raised the floor and
	// those checked to leave no fenced entry, so a run that never
	// exercised them fails.
	raised, emptied int
}

func (m *indexModel) fatalf(format string, args ...any) {
	m.t.Helper()
	m.t.Fatalf("step %d: "+format, append([]any{m.steps}, args...)...)
}

var indexTestKeys = []string{"a", "b", "c", "d", "e", "f"}

func (m *indexModel) key() string { return indexTestKeys[m.rng.Intn(len(indexTestKeys))] }

// stamp draws from a range small enough that records collide on a
// timestamp all the time.
func (m *indexModel) stamp() timestamp.Timestamp {
	return ts(m.base+uint64(1+m.rng.Intn(24)), int32(m.rng.Intn(3)))
}

// command draws single-key reads and writes, multi-key commands (now and
// then naming one key twice), noops and fences.
func (m *indexModel) command() command.Command {
	var cmd command.Command
	switch p := m.rng.Intn(20); {
	case p < 7:
		cmd = command.Put(m.key(), nil)
	case p < 10:
		cmd = command.Get(m.key())
	case p < 12:
		cmd = command.Add(m.key(), 1)
	case p < 17:
		cmd = command.Put(m.key(), nil)
		if m.rng.Intn(3) == 0 {
			cmd.Op = command.OpGet
		}
		for n := 1 + m.rng.Intn(3); n > 0; n-- {
			cmd.ExtraKeys = append(cmd.ExtraKeys, m.key())
		}
	case p < 18:
		cmd = command.Noop()
	default:
		cmd = command.Fence(nil)
	}
	m.seq++
	cmd.ID = command.ID{Node: timestamp.NodeID(m.rng.Intn(3)), Seq: m.seq}
	return cmd
}

func (m *indexModel) pick() *record { return m.live[m.rng.Intn(len(m.live))] }

// step applies one random mutation to the history, or ends a GC tick.
func (m *indexModel) step() {
	if m.rng.Intn(10) == 0 {
		m.raiseFloor()
		return
	}
	p := m.rng.Intn(100)
	if len(m.live) == 0 || (p < 25 && len(m.live) < 48) {
		rec := m.h.ensure(m.command())
		rec.status = Status(m.rng.Intn(int(StatusStable) + 1))
		m.h.setTimestamp(rec, m.stamp())
		m.live = append(m.live, rec)
		return
	}
	rec := m.pick()
	switch {
	case p < 45:
		m.h.setTimestamp(rec, m.stamp())
	case p < 55: // an exact tie with another record
		m.h.setTimestamp(rec, m.pick().ts)
	case p < 65: // hop over a neighbour: one step up or down
		to := rec.ts
		if m.rng.Intn(2) == 0 && to.Seq > 1 {
			to.Seq--
		} else {
			to.Seq++
		}
		m.h.setTimestamp(rec, to)
	case p < 75:
		m.h.unindex(rec)
	case p < 85:
		m.h.index(rec)
	default:
		m.purge(rec)
	}
}

func (m *indexModel) purge(rec *record) {
	m.purged = append(m.purged, purgedCmd{cmd: rec.cmd, ts: rec.ts})
	m.h.purge(rec)
	m.live = slices.DeleteFunc(m.live, func(r *record) bool { return r == rec })
	m.top = timestamp.Max(m.top, rec.ts)
}

// drain purges every live record, as a quiet cluster eventually does, and
// moves fresh stamps above everything purged.
func (m *indexModel) drain() {
	for len(m.live) > 0 {
		m.purge(m.live[0])
	}
	m.base = m.top.Seq
}

// raiseFloor ends a GC tick at the horizon of a cluster whose only records
// are the model's: the lowest of a clock above the stamps drawn and every
// indexed record. It checks what a tick may do: raise the floor to the
// horizon and never over an indexed record, count the entries whose fence
// is above the floor, and, once the floor covers everything purged, leave
// no fenced entry.
func (m *indexModel) raiseFloor() {
	clock := ts(m.base+25, 0)
	horizon, want := m.h.low(clock), clock
	for _, rec := range m.live {
		if rec.indexed && rec.ts.Less(want) {
			want = rec.ts
		}
	}
	if horizon != want {
		m.fatalf("low(%v) = %v, want %v", clock, horizon, want)
	}
	floor := m.h.floor
	fenced := m.h.raiseFloor(horizon)
	if m.h.floor != timestamp.Max(floor, horizon) {
		m.fatalf("raising the floor to the horizon %v moved it %v → %v", horizon, floor, m.h.floor)
	}
	above := 0
	for _, l := range m.h.byKey {
		if m.h.floor.Less(l.fence) {
			above++
		}
	}
	if fenced != above {
		m.fatalf("raiseFloor counted %d fenced entries, %d have a fence above the floor %v", fenced, above, m.h.floor)
	}
	if m.h.floor != floor {
		m.raised++
		for _, rec := range m.live {
			if rec.indexed && rec.ts.Less(m.h.floor) {
				m.fatalf("raised the floor %v → %v, over open %v at %v", floor, m.h.floor, rec.cmd, rec.ts)
			}
		}
	}
	if !m.h.floor.Less(m.top) {
		if fenced > 0 {
			m.fatalf("a floor %v over everything purged left %d fenced entries", m.h.floor, fenced)
		}
		m.emptied++
	}
}

// naive returns the IDs a scan by cmd at bound must report: below, the
// conflicting indexed records strictly under bound; above, those strictly
// over it — where a keyed record tied with bound counts as over it (the
// scans compare against (bound, zero ID)), a fence, or a record met by a
// fence, does not.
func (m *indexModel) naive(cmd command.Command, bound timestamp.Timestamp, above bool, keep func(*record) bool) []command.ID {
	var ids []command.ID
	for _, rec := range m.h.recs {
		if !rec.indexed || rec.id() == cmd.ID || !rec.cmd.Conflicts(cmd) {
			continue
		}
		in := rec.ts.Less(bound)
		if above {
			in = bound.Less(rec.ts)
			if rec.ts == bound && cmd.Op != command.OpFence && rec.cmd.Op != command.OpFence {
				in = true
			}
		}
		if in && (keep == nil || keep(rec)) {
			ids = append(ids, rec.id())
		}
	}
	return command.SortIDs(ids)
}

// naiveFenced is fencedAbove from the list of purged commands.
func (m *indexModel) naiveFenced(cmd command.Command, at timestamp.Timestamp) bool {
	if cmd.Op == command.OpNoop {
		return false
	}
	for _, p := range m.purged {
		if !at.Less(p.ts) {
			continue
		}
		if cmd.Op == command.OpFence || p.cmd.Op == command.OpFence {
			return true
		}
		for _, k := range p.cmd.Keys() {
			if touches(cmd, k) {
				return true
			}
		}
	}
	return false
}

// once fails the test if a scan reported a record twice, and returns the
// reported IDs sorted.
func (m *indexModel) once(what string, got []command.ID) []command.ID {
	got = command.SortIDs(got)
	for i := 1; i < len(got); i++ {
		if got[i] == got[i-1] {
			m.fatalf("%s reported %v twice", what, got[i])
		}
	}
	return got
}

func (m *indexModel) same(what string, got, want []command.ID) {
	if !slices.Equal(got, want) {
		m.fatalf("%s:\n got  %v\n want %v", what, got, want)
	}
}

// check probes the index with cmd at bound and compares every query.
func (m *indexModel) check(cmd command.Command, bound timestamp.Timestamp) {
	what := fmt.Sprintf("%v at %v", cmd, bound)

	var got []command.ID
	m.h.conflicts(cmd, bound, below, func(rec *record) bool { got = append(got, rec.id()); return true })
	under := m.naive(cmd, bound, false, nil)
	m.same("conflictsBelow "+what, m.once("conflictsBelow "+what, got), under)

	got = nil
	m.h.conflicts(cmd, bound, above, func(rec *record) bool { got = append(got, rec.id()); return true })
	over := m.naive(cmd, bound, true, nil)
	m.same("conflictsAbove "+what, m.once("conflictsAbove "+what, got), over)

	// Early stop: exactly limit callbacks (or all of them), each a distinct
	// member of the full answer.
	limit := 1 + m.rng.Intn(3)
	got = nil
	m.h.conflicts(cmd, bound, above, func(rec *record) bool { got = append(got, rec.id()); return len(got) < limit })
	if want := min(limit, len(over)); len(got) != want {
		m.fatalf("conflictsAbove %s stopping after %d: %d callbacks, want %d", what, limit, len(got), want)
	}
	for _, id := range m.once("stopped conflictsAbove "+what, got) {
		if !slices.Contains(over, id) {
			m.fatalf("stopped conflictsAbove %s reported %v, not in %v", what, id, over)
		}
	}

	// Predecessor sets come out strictly ascending: compared as they are.
	plain := m.h.computePredecessors(cmd, bound, nil, false)
	m.same("computePredecessors "+what, plain, under)
	var wl []command.ID
	for n := m.rng.Intn(3); n > 0 && len(m.live) > 0; n-- {
		wl = command.InsertID(wl, m.pick().id())
	}
	sent := slices.Clone(wl)
	want := m.naive(cmd, bound, false, func(rec *record) bool {
		return rec.status == StatusSlowPending || rec.status == StatusAccepted || rec.status == StatusStable
	})
	for _, id := range wl {
		want = command.InsertID(want, id)
	}
	m.same("whitelisted computePredecessors "+what, m.h.computePredecessors(cmd, bound, wl, true), want)
	m.same("the whitelist after computePredecessors "+what, wl, sent)
	// The caller owns a set: building the next one leaves it alone.
	m.same("computePredecessors "+what+" after the next call", plain, under)

	// The fence never misses a purged conflict; it forgets only below the
	// floor, where it rejects everything but a noop.
	fenced, naive := m.h.fencedAbove(cmd, bound), m.naiveFenced(cmd, bound)
	switch {
	case naive && !fenced:
		m.fatalf("fencedAbove %s = false, a purged conflict orders above it", what)
	case bound.Less(m.h.floor) && cmd.Op != command.OpNoop && !fenced:
		m.fatalf("fencedAbove %s = false below the floor %v", what, m.h.floor)
	case !bound.Less(m.h.floor) && fenced != naive:
		m.fatalf("fencedAbove %s = %v at or above the floor %v, want %v", what, fenced, m.h.floor, naive)
	}
}

// checkLists verifies the index's own shape: every key's list strictly
// sorted and holding exactly the indexed records on that key, and empty
// only while the key's fence is above the floor.
func (m *indexModel) checkLists() {
	entries := 0
	inIndex := make(map[*keyList]bool, len(m.h.byKey))
	for k, l := range m.h.byKey {
		inIndex[l] = true
		recs := l.recs
		if len(recs) == 0 && !m.h.floor.Less(l.fence) {
			m.fatalf("key %q kept an empty list with its fence %v at or below the floor %v", k, l.fence, m.h.floor)
		}
		for i, rec := range recs {
			if !rec.indexed || !touches(rec.cmd, k) {
				m.fatalf("key %q lists %v (indexed=%v)", k, rec.cmd, rec.indexed)
			}
			if i > 0 && cmpRecord(recs[i-1], tsKey{ts: rec.ts, id: rec.id()}) >= 0 {
				m.fatalf("key %q out of order at %d: %v %v then %v %v", k, i, recs[i-1].ts, recs[i-1].id(), rec.ts, rec.id())
			}
		}
		entries += len(recs)
	}
	// A spare is cleared and no key's entry.
	for i, l := range m.h.spare {
		if l.recs != nil || l.first[0] != nil || l.fence != (timestamp.Timestamp{}) || inIndex[l] {
			m.fatalf("spare %d holds %d records, first %v, fence %v, indexed %v", i, len(l.recs), l.first[0], l.fence, inIndex[l])
		}
	}
	want := 0
	for _, rec := range m.h.recs {
		if rec.indexed {
			distinct := map[string]struct{}{}
			for _, k := range rec.cmd.Keys() {
				distinct[k] = struct{}{}
			}
			want += len(distinct)
		}
	}
	if entries != want {
		m.fatalf("index holds %d entries, indexed records have %d keys", entries, want)
	}
}

// run drives the model for steps steps, draining the history every 500,
// and probes the index after each one.
func (m *indexModel) run(steps int) {
	for m.steps = 1; m.steps <= steps; m.steps++ {
		if m.steps%500 == 0 {
			m.drain()
		} else {
			m.step()
		}
		m.checkLists()
		// A fresh command at a random bound, and a command the history
		// holds probing at a timestamp some record sits on.
		m.check(m.command(), m.stamp())
		if len(m.live) > 0 {
			m.check(m.pick().cmd, m.pick().ts)
		}
	}
}

func newIndexModel(t *testing.T, seed int64) *indexModel {
	return &indexModel{t: t, rng: rand.New(rand.NewSource(seed)), h: newHistory()}
}

func TestConflictIndexMatchesNaiveScan(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			m := newIndexModel(t, seed)
			m.run(10000)
			t.Logf("ticks that raised the floor: %d; checked to leave no fenced entry: %d", m.raised, m.emptied)
			if m.raised == 0 || m.emptied == 0 {
				t.Fatal("the run never raised the purge fence's floor or never emptied it")
			}
		})
	}
}

// FuzzConflictIndex runs the model from any seed, for 2,000 steps.
func FuzzConflictIndex(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		newIndexModel(t, seed).run(2000)
	})
}

// A backlog's maps are rebuilt as it drains, and what they hold survives
// the rebuilds: the records left are found by ID and by key.
func TestHistoryMapsShrinkAfterBacklog(t *testing.T) {
	const n, left = 4 * shrinkFrom, 10
	h := newHistory()
	for seq := uint64(1); seq <= n; seq++ {
		h.setTimestamp(h.ensure(put(0, seq, fmt.Sprint("k", seq))), ts(seq, 0))
	}
	if h.recsPeak != n || h.keysPeak != n {
		t.Fatalf("peaks %d and %d after %d records", h.recsPeak, h.keysPeak, n)
	}
	for h.first.id().Seq <= n-left {
		h.remove(h.first)
	}
	if h.recsPeak >= shrinkFrom || h.keysPeak >= shrinkFrom {
		t.Errorf("peaks %d and %d with %d records left: the maps were not rebuilt", h.recsPeak, h.keysPeak, left)
	}
	if len(h.recs) != left || len(h.byKey) != left {
		t.Fatalf("%d records and %d keys left, want %d", len(h.recs), len(h.byKey), left)
	}
	for seq := uint64(n - left + 1); seq <= n; seq++ {
		cmd := put(1, seq, fmt.Sprint("k", seq))
		var found []command.ID
		h.conflicts(cmd, ts(n+1, 0), below, func(rec *record) bool { found = append(found, rec.id()); return true })
		if want := (command.ID{Seq: seq}); h.get(want) == nil || !slices.Equal(found, []command.ID{want}) {
			t.Errorf("record %d: get %v, conflicts on its key %v", seq, h.get(want), found)
		}
	}
}

// TestConflictIndexSparesHoldNoRecord: an entry that leaves the index —
// by unindex, or by raiseFloor once the floor covers its fence — is
// cleared before it goes on the spare list, so it keeps no purged record
// (and that record's chunk) alive, and the next key to need an entry
// reuses it. Two floor raises with no entry made since the one before
// them leave the spare list empty.
func TestConflictIndexSparesHoldNoRecord(t *testing.T) {
	h := newHistory()
	cleared := func(what string, l *keyList) {
		t.Helper()
		if l.recs != nil || l.first[0] != nil || l.fence != (timestamp.Timestamp{}) {
			t.Fatalf("%s: the dropped entry holds %d records, first %v, fence %v", what, len(l.recs), l.first[0], l.fence)
		}
	}
	a := h.ensure(put(1, 1, "a"))
	h.setTimestamp(a, ts(1, 1))
	l := h.byKey["a"]
	h.unindex(a)
	if h.byKey["a"] != nil || !slices.Equal(h.spare, []*keyList{l}) {
		t.Fatalf("unindex left entry %v and spares %v, want no entry and one spare", h.byKey["a"], h.spare)
	}
	cleared("unindex", l)

	// The spare serves the next key; a purge keeps the entry while its
	// fence is above the floor, and the raise that covers it drops it.
	b := h.ensure(put(1, 2, "b"))
	h.setTimestamp(b, ts(2, 1))
	if h.byKey["b"] != l || len(h.spare) != 0 {
		t.Fatalf("a new key got entry %p with %d spares left, want the spare %p", h.byKey["b"], len(h.spare), l)
	}
	h.purge(b)
	if h.byKey["b"] != l {
		t.Fatal("the purge dropped an entry whose fence is above the floor")
	}
	h.raiseFloor(ts(3, 0))
	if h.byKey["b"] != nil || !slices.Equal(h.spare, []*keyList{l}) {
		t.Fatalf("raiseFloor left entry %v and spares %v, want no entry and one spare", h.byKey["b"], h.spare)
	}
	cleared("raiseFloor", l)

	h.raiseFloor(ts(4, 0))
	h.raiseFloor(ts(5, 0))
	if len(h.spare) != 0 {
		t.Fatalf("%d spares after two floor raises with no entry made since the one before, want 0", len(h.spare))
	}
}

// TestConflictIndexSparesOutlastAnUnevenRaise: a floor raise drops entries
// in a batch the heartbeats time, not the keys' pace, so it may drop more
// than the interval it ends made. The spare list keeps what the two
// intervals before the raise made, and the next interval's fresh keys take
// the dropped entries instead of allocating.
func TestConflictIndexSparesOutlastAnUnevenRaise(t *testing.T) {
	h := newHistory()
	const n = 8
	dropped := make(map[*keyList]bool)
	for i := 1; i <= n; i++ {
		key := fmt.Sprintf("k%d", i)
		rec := h.ensure(put(1, uint64(i), key))
		h.setTimestamp(rec, ts(uint64(i), 1))
		dropped[h.byKey[key]] = true
		h.purge(rec)
	}
	h.raiseFloor(ts(0, 0))   // ends the interval that made n entries; every fence stays above the floor
	h.raiseFloor(ts(n+1, 0)) // ends an interval that made none, and drops all n
	if len(h.spare) != n {
		t.Fatalf("%d spares after a raise dropped %d entries the interval before it made, want %d", len(h.spare), n, n)
	}
	for i := 1; i <= n; i++ {
		if l := h.list(fmt.Sprintf("fresh%d", i)); !dropped[l] {
			t.Fatalf("fresh key %d got a new entry, not one the raise dropped", i)
		}
	}
}

// BenchmarkPredecessors builds a plain predecessor set on a key already
// holding depth conflicting records: none for most commands, 8 and 64
// around lan3-mixed4g's 90th percentile and deepest hot key. A non-empty
// set costs one allocation whatever its size.
func BenchmarkPredecessors(b *testing.B) {
	for _, depth := range []int{0, 8, 64} {
		h := newHistory()
		for i := 1; i <= depth; i++ {
			h.setTimestamp(h.ensure(put(0, uint64(i), "k")), ts(uint64(2*i), 0))
		}
		probe, at := put(1, 1, "k"), ts(uint64(2*depth+1), 1)
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if pred := h.predecessorsBelow(probe, at); len(pred) != depth {
					b.Fatalf("%d predecessors, want %d", len(pred), depth)
				}
			}
		})
	}
}

// BenchmarkConflictIndex measures the index at per-key depths from the
// benchmark's common case (1) to far beyond its hottest key (1024): one
// index+unindex pair at the tail and in the middle of the key's list, and
// a scan below a bound above every record.
func BenchmarkConflictIndex(b *testing.B) {
	for _, depth := range []int{1, 8, 64, 1024} {
		h := newHistory()
		for i := 1; i <= depth; i++ {
			h.setTimestamp(h.ensure(put(0, uint64(i), "k")), ts(uint64(2*i), 0))
		}
		probe := put(1, 1, "k")
		insert := func(at timestamp.Timestamp) func(*testing.B) {
			return func(b *testing.B) {
				rec := &record{cmd: probe, ts: at}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					h.index(rec)
					h.unindex(rec)
				}
			}
		}
		b.Run(fmt.Sprintf("depth=%d/tail-insert", depth), insert(ts(uint64(2*depth+1), 1)))
		b.Run(fmt.Sprintf("depth=%d/middle-insert", depth), insert(ts(uint64(depth+1), 1)))
		b.Run(fmt.Sprintf("depth=%d/scan-below", depth), func(b *testing.B) {
			b.ReportAllocs()
			n := 0
			for i := 0; i < b.N; i++ {
				h.conflicts(probe, ts(uint64(2*depth+1), 1), below, func(*record) bool { n++; return true })
			}
			if n != depth*b.N {
				b.Fatalf("visited %d records, want %d", n, depth*b.N)
			}
		})
	}
}
