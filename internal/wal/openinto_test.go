package wal

import (
	"testing"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/kvstore"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/xshard"
)

// TestOpenIntoReplaysDirectly checks the restart path: OpenInto replays
// snapshot + tail straight into the caller's store, leaving the image plus
// applied count in the store itself.
func TestOpenIntoReplaysDirectly(t *testing.T) {
	dir := t.TempDir()
	l, st := mustOpen(t, dir, Options{})
	if !st.Empty {
		t.Fatalf("fresh dir not empty: %+v", st)
	}
	logPut(t, l, 0, 1, 1, "a", "va")
	logPut(t, l, 0, 1, 2, "b", "vb")
	xid := xshard.XID{Node: 2, Seq: 1}
	ops := []command.Command{command.Put("t1", []byte("x")), command.Put("t2", []byte("y"))}
	logTx(t, l, xid, timestamp.Timestamp{Seq: 50, Node: 2}, ops, func() {})
	// Force a snapshot so the replay exercises both the import path and
	// the tail path.
	if err := l.Snapshot(func() (map[string][]byte, int64) {
		return map[string][]byte{"a": []byte("va"), "b": []byte("vb"), "t1": []byte("x"), "t2": []byte("y")}, 4
	}); err != nil {
		t.Fatal(err)
	}
	logPut(t, l, 0, 1, 3, "c", "vc")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	store := kvstore.New()
	l2, st2, err := OpenInto(dir, store, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if st2.Empty {
		t.Fatal("recovered state empty")
	}
	want := map[string]string{"a": "va", "b": "vb", "c": "vc", "t1": "x", "t2": "y"}
	if store.Len() != len(want) {
		t.Fatalf("store holds %d keys, want %d", store.Len(), len(want))
	}
	for k, v := range want {
		got, ok := store.Get(k)
		if !ok || string(got) != v {
			t.Fatalf("store[%q] = %q,%v, want %q", k, got, ok, v)
		}
	}
	// Snapshot applied count (4) + the tail command (1).
	if store.Applied() != 5 {
		t.Fatalf("store.Applied = %d, want 5", store.Applied())
	}
	if st2.Applied != 5 {
		t.Fatalf("State.Applied = %d, want 5", st2.Applied)
	}
	if !st2.Delivered[0].Has(command.ID{Node: 1, Seq: 3}) {
		t.Fatal("tail command missing from the delivered set")
	}
	if st2.Settled.Len() != 1 || !st2.Settled.Has(command.ID(xid)) {
		t.Fatalf("Settled holds %d XIDs, want exactly %v", st2.Settled.Len(), xid)
	}
}
