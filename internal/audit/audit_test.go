package audit

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"

	"github.com/caesar-consensus/caesar/internal/shard"
)

func TestDigestJSONRoundTrip(t *testing.T) {
	// A digest above 2^53 is exactly what a raw JSON number would corrupt.
	for _, d := range []Digest{0, 1, 0xdeadbeefcafef00d, ^Digest(0)} {
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		var got Digest
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if got != d {
			t.Errorf("round trip %v -> %s -> %v", d, b, got)
		}
	}
	var bad Digest
	if err := json.Unmarshal([]byte(`"not-hex"`), &bad); err == nil {
		t.Error("bad hex digest unmarshalled without error")
	}
}

// TestEpochs pins what the audit fold needs of its group attribution (the
// store's GroupFn, which a node builds from shard.Epochs.GroupOf): every
// replica attributes a write to the same group, whatever order it
// installed epochs in.
func TestEpochs(t *testing.T) {
	e := shard.NewEpochs()
	if g := e.GroupOf("k", 0); g != 0 {
		t.Errorf("unknown epoch attributed to group %d, want 0", g)
	}
	e.Install(0, 4)
	e.Install(1, 8)
	e.Install(1, 999) // installs are first-write-wins per epoch
	if n := e.Shards(0); n != 4 {
		t.Errorf("Shards(0) = %d, want 4", n)
	}
	if n := e.Shards(1); n != 8 {
		t.Errorf("Shards(1) = %d, want 8 (re-install must not overwrite)", n)
	}
	// Attribution must be pure: same (key, epoch) -> same group, and
	// groups stay within the epoch's shard count.
	for _, key := range []string{"a", "b", "c", "hello"} {
		g0 := e.GroupOf(key, 1)
		if g0 != e.GroupOf(key, 1) {
			t.Fatalf("GroupOf(%q, 1) unstable", key)
		}
		if g0 < 0 || g0 >= 8 {
			t.Errorf("GroupOf(%q, 1) = %d out of [0,8)", key, g0)
		}
	}
}

// quote builds a single-group report for the Diff/Collector tests.
func quote(node string, epoch uint32, frontier uint64, digest, idfold Digest) Report {
	return Report{
		Node: node,
		State: State{Groups: []GroupState{{
			Group: 0, Epoch: epoch, Frontier: frontier, Digest: digest, IDFold: idfold,
		}}},
	}
}

func TestDiff(t *testing.T) {
	// Equal quotes: compared and matched, no divergence.
	divs, stats := Diff([]Report{
		quote("p0", 1, 10, 0xaa, 0x11),
		quote("p1", 1, 10, 0xaa, 0x11),
		quote("p2", 1, 10, 0xaa, 0x11),
	})
	if len(divs) != 0 || stats.Compared != 3 || stats.Matched != 3 {
		t.Errorf("healthy cluster: divs=%v stats=%+v", divs, stats)
	}

	// Same command multiset (equal idfold), different digests: proven
	// state divergence.
	divs, stats = Diff([]Report{
		quote("p0", 1, 10, 0xaa, 0x11),
		quote("p1", 1, 10, 0xbb, 0x11),
	})
	if len(divs) != 1 || divs[0].Kind != "state" {
		t.Fatalf("state divergence not proven: divs=%v stats=%+v", divs, stats)
	}
	d := divs[0]
	if d.NodeA != "p0" || d.NodeB != "p1" || d.DigestA != 0xaa || d.DigestB != 0xbb || d.Frontier != 10 {
		t.Errorf("proof bundle wrong: %+v", d)
	}

	// Different frontiers (one replica behind): not comparable, never
	// flagged.
	divs, stats = Diff([]Report{
		quote("p0", 1, 10, 0xaa, 0x11),
		quote("p1", 1, 9, 0xbb, 0x22),
	})
	if len(divs) != 0 || stats.Compared != 0 {
		t.Errorf("lagging replica flagged: divs=%v stats=%+v", divs, stats)
	}

	// Equal frontier, different idfold (different in-flight prefixes):
	// skipped by Diff (the Collector's suspect tracker owns this case).
	divs, stats = Diff([]Report{
		quote("p0", 1, 10, 0xaa, 0x11),
		quote("p1", 1, 10, 0xbb, 0x22),
	})
	if len(divs) != 0 || stats.Compared != 0 {
		t.Errorf("idfold mismatch flagged by Diff: divs=%v stats=%+v", divs, stats)
	}

	// A failed node's report is ignored, the rest still compare.
	divs, stats = Diff([]Report{
		quote("p0", 1, 10, 0xaa, 0x11),
		quote("p1", 1, 10, 0xaa, 0x11),
		{Node: "p2", Err: "connection refused"},
	})
	if len(divs) != 0 || stats.Nodes != 2 || stats.Compared != 1 || stats.Matched != 1 {
		t.Errorf("failed node mishandled: divs=%v stats=%+v", divs, stats)
	}
}

// TestCollectorDedupe checks a proven disagreement is raised exactly once
// across rounds.
func TestCollectorDedupe(t *testing.T) {
	reports := []Report{
		quote("p0", 1, 10, 0xaa, 0x11),
		quote("p1", 1, 10, 0xbb, 0x11),
	}
	var raised []Divergence
	col := &Collector{
		Sources: []Source{
			{Name: "p0", Fetch: func(context.Context) (Report, error) { return reports[0], nil }},
			{Name: "p1", Fetch: func(context.Context) (Report, error) { return reports[1], nil }},
		},
		OnDivergence: func(d Divergence) { raised = append(raised, d) },
	}
	_, fresh := col.RunOnce(context.Background())
	if len(fresh) != 1 || len(raised) != 1 {
		t.Fatalf("round 1: fresh=%v raised=%v", fresh, raised)
	}
	_, fresh = col.RunOnce(context.Background())
	if len(fresh) != 0 || len(raised) != 1 {
		t.Fatalf("round 2 re-raised: fresh=%v raised=%v", fresh, raised)
	}
	if col.Divergences() != 1 || col.Rounds() != 2 {
		t.Errorf("counters: divergences=%d rounds=%d", col.Divergences(), col.Rounds())
	}
}

// TestCollectorApplySetPromotion checks the two-round promotion: an
// idfold mismatch at an identical frontier is suspicious after one
// sighting and an "apply-set" divergence only when the exact same quotes
// persist into the next round — any new apply resets the suspicion.
func TestCollectorApplySetPromotion(t *testing.T) {
	cur := []Report{
		quote("p0", 1, 10, 0xaa, 0x11),
		quote("p1", 1, 10, 0xbb, 0x22),
	}
	col := &Collector{Sources: []Source{
		{Name: "p0", Fetch: func(context.Context) (Report, error) { return cur[0], nil }},
		{Name: "p1", Fetch: func(context.Context) (Report, error) { return cur[1], nil }},
	}}
	if _, fresh := col.RunOnce(context.Background()); len(fresh) != 0 {
		t.Fatalf("promoted on first sighting: %v", fresh)
	}
	_, fresh := col.RunOnce(context.Background())
	if len(fresh) != 1 || fresh[0].Kind != "apply-set" {
		t.Fatalf("persistent mismatch not promoted: %v", fresh)
	}

	// New collector, but the quotes change between rounds (p1 applied
	// something): suspicion must reset, nothing promoted.
	col2 := &Collector{Sources: col.Sources}
	if _, fresh := col2.RunOnce(context.Background()); len(fresh) != 0 {
		t.Fatalf("round 1: %v", fresh)
	}
	cur[1] = quote("p1", 1, 11, 0xcc, 0x33)
	if _, fresh := col2.RunOnce(context.Background()); len(fresh) != 0 {
		t.Fatalf("changed quotes still promoted: %v", fresh)
	}
}

// TestHandlerAndHTTPSource round-trips a report through the /auditz
// handler and its client.
func TestHandlerAndHTTPSource(t *testing.T) {
	want := Report{
		Node: "p7", Epoch: 3, Applied: 42,
		State: State{
			Groups: []GroupState{{Group: 1, Epoch: 3, Frontier: 9, Digest: 0xdeadbeefcafef00d, IDFold: 0x1}},
			Stamps: []Stamp{{Kind: "snapshot", Seq: 40, Group: 1, Epoch: 3, Frontier: 8, Digest: 0x2}},
		},
	}
	mux := httptest.NewServer(Handler(func() Report { return want }))
	defer mux.Close()
	src := HTTPSource(nil, mux.URL)
	got, err := src.Fetch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.Node != "p7" || got.Epoch != 3 || got.Applied != 42 {
		t.Errorf("report header: %+v", got)
	}
	if len(got.Groups) != 1 || got.Groups[0].Digest != 0xdeadbeefcafef00d || got.Groups[0].IDFold != 0x1 {
		t.Errorf("groups: %+v", got.Groups)
	}
	if len(got.Stamps) != 1 || got.Stamps[0].Kind != "snapshot" {
		t.Errorf("stamps: %+v", got.Stamps)
	}

	// Collect keeps per-node failures as Err instead of failing the sweep.
	reports := Collect(context.Background(), []Source{
		src,
		{Name: "p9", Fetch: func(context.Context) (Report, error) { return Report{}, fmt.Errorf("boom") }},
	})
	if len(reports) != 2 || reports[0].Err != "" || reports[1].Err != "boom" || reports[1].Node != "p9" {
		t.Errorf("Collect: %+v", reports)
	}
}
