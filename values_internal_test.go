package caesar

import (
	"bytes"
	"context"
	"testing"
	"time"
)

// waitStored waits until every replica's store holds the keys: a proposal
// returns once its own node applied it, the others apply on their own.
func waitStored(t *testing.T, c *Cluster, keys ...string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for i, n := range c.nodes {
		for _, k := range keys {
			for {
				if _, ok := n.store.Get(k); ok {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("node %d never applied %s", i, k)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
}

// TestCallerBuffersStayTheCallers: a command's bytes are immutable from
// submission on, and the replicas of an in-process cluster share them down
// to their stores, so the public API copies wherever a caller's buffer
// comes in or goes out. Writing into the buffers given to Propose and
// ProposeTx, or into the slices Read, ReadTx and Propose return, changes
// no replica's value.
func TestCallerBuffersStayTheCallers(t *testing.T) {
	c, err := NewLocalCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	want := map[string]string{"k": "original", "a": "tx-a", "b": "tx-b"}
	buf := []byte(want["k"])
	if _, err := c.Node(0).Propose(ctx, Put("k", buf)); err != nil {
		t.Fatal(err)
	}
	txa, txb := []byte(want["a"]), []byte(want["b"])
	if err := c.Node(1).ProposeTx(ctx, []Command{Put("a", txa), Put("b", txb)}); err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]byte{buf, txa, txb} {
		b[0] ^= 0xff
	}
	waitStored(t, c, "k", "a", "b")

	for i := 0; i < c.Size(); i++ {
		n := c.Node(i)
		v, err := n.Read(ctx, "k")
		if err != nil || string(v) != want["k"] {
			t.Fatalf("node %d: Read(k) = %q, %v; want %q", i, v, err, want["k"])
		}
		v[0] ^= 0xff
		vals, err := n.ReadTx(ctx, []string{"a", "b"})
		if err != nil || string(vals[0]) != want["a"] || string(vals[1]) != want["b"] {
			t.Fatalf("node %d: ReadTx(a, b) = %q, %v", i, vals, err)
		}
		vals[0][0] ^= 0xff
		vals[1][0] ^= 0xff
		if v, err = n.Propose(ctx, Get("k")); err != nil || string(v) != want["k"] {
			t.Fatalf("node %d: Propose(Get k) = %q, %v; want %q", i, v, err, want["k"])
		}
		v[0] ^= 0xff
	}
	for i, n := range c.nodes {
		for k, w := range want {
			if v, _ := n.store.Get(k); string(v) != w {
				t.Errorf("node %d stores %s = %q, want %q", i, k, v, w)
			}
		}
	}
}

// TestInjectDivergenceCorruptsOneReplica: the replicas of an in-process
// cluster share a put's bytes, so the corruption hook swaps in a flipped
// copy on the node it is called on and leaves the others' value alone.
// TestAuditDivergenceE2E then flags exactly that replica.
func TestInjectDivergenceCorruptsOneReplica(t *testing.T) {
	c, err := NewLocalCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	val := []byte("value")
	if _, err := c.Node(0).Propose(ctx, Put("k", val)); err != nil {
		t.Fatal(err)
	}
	waitStored(t, c, "k")

	c.nodes[1].store.InjectDivergence("k")
	for i, n := range c.nodes {
		got, _ := n.store.Get("k")
		if corrupted := !bytes.Equal(got, val); corrupted != (i == 1) {
			t.Errorf("node %d stores %q after corrupting node 1", i, got)
		}
	}
}
