package caesar_test

import (
	"context"
	"strings"
	"testing"
	"time"

	caesar "github.com/caesar-consensus/caesar"
)

func TestPublicQuickstart(t *testing.T) {
	cluster, err := caesar.NewLocalCluster(5)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	node := cluster.Node(0)
	if _, err := node.Propose(ctx, caesar.Put("k", []byte("v"))); err != nil {
		t.Fatalf("put: %v", err)
	}
	got, err := node.Propose(ctx, caesar.Get("k"))
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if string(got) != "v" {
		t.Fatalf("got %q, want %q", got, "v")
	}
	st := node.Stats()
	if st.FastDecisions == 0 {
		t.Fatal("expected fast decisions on an idle cluster")
	}
}

func TestPublicCrossNodeVisibility(t *testing.T) {
	cluster, err := caesar.NewLocalCluster(5)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	if _, err := cluster.Node(1).Propose(ctx, caesar.Put("x", []byte("42"))); err != nil {
		t.Fatal(err)
	}
	// A linearizable read through another node observes the write.
	got, err := cluster.Node(4).Propose(ctx, caesar.Get("x"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "42" {
		t.Fatalf("cross-node read got %q", got)
	}
}

func TestPublicClusterTooSmall(t *testing.T) {
	if _, err := caesar.NewLocalCluster(2); err == nil {
		t.Fatal("expected error for 2-node cluster")
	}
}

func TestPublicCrashTolerance(t *testing.T) {
	cluster, err := caesar.NewLocalCluster(5, caesar.WithNodeOptions(caesar.Options{
		HeartbeatInterval: 20 * time.Millisecond,
		SuspectTimeout:    150 * time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if _, err := cluster.Node(0).Propose(ctx, caesar.Put("k", []byte("before"))); err != nil {
		t.Fatal(err)
	}
	cluster.Crash(4)
	if _, err := cluster.Node(0).Propose(ctx, caesar.Put("k", []byte("after"))); err != nil {
		t.Fatalf("cluster did not survive a single crash: %v", err)
	}
	got, err := cluster.Node(1).Propose(ctx, caesar.Get("k"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "after" {
		t.Fatalf("got %q, want %q", got, "after")
	}
}

// TestDefaultNodeDiagnoses checks the diagnosis API of a node built with
// no options: the stall watchdog runs by default, so an on-demand bundle
// carries its sections, and the flight recorder journals the node's start.
func TestDefaultNodeDiagnoses(t *testing.T) {
	cluster, err := caesar.NewLocalCluster(3, caesar.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	node := cluster.Node(0)

	d := node.Diagnose()
	if d.Stalled() || len(d.Stalls()) != 0 {
		t.Errorf("healthy node diagnosed stalls: %v", d.Stalls())
	}
	for _, section := range []string{"-- commit table --", "-- rebalance --", "-- flight recorder --"} {
		if !strings.Contains(d.String(), section) {
			t.Errorf("bundle lacks section %q:\n%s", section, d)
		}
	}
	if last, ok := node.LastStall(); ok {
		t.Errorf("LastStall on a healthy node = %s", last)
	}
	if log := node.FlightLog(8); !strings.Contains(log, "node started: 2 group(s)") {
		t.Errorf("FlightLog(8) lacks the node-start event:\n%s", log)
	}
}
