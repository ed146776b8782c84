package main

import (
	"bufio"
	"net"
	"reflect"
	"strings"
	"testing"

	"github.com/caesar-consensus/caesar/internal/batch"
	"github.com/caesar-consensus/caesar/internal/caesar"
	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/memnet"
	"github.com/caesar-consensus/caesar/internal/stack"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// cluster builds and starts three one-group in-memory stacks with live
// resizing, as the server builds them.
func cluster(t *testing.T) []*stack.Stack {
	t.Helper()
	net := memnet.New(memnet.Config{Nodes: 3})
	t.Cleanup(net.Close)
	stks := make([]*stack.Stack, 3)
	for i := range stks {
		stk, err := stack.Build(net.Endpoint(timestamp.NodeID(i)), stack.Config{
			Rebalance: true,
			Build:     stack.CaesarEngine(caesar.Config{}),
		})
		if err != nil {
			t.Fatal(err)
		}
		stk.Start()
		t.Cleanup(stk.Stop)
		stks[i] = stk
	}
	return stks
}

// dial runs handleClient on one end of a pipe and returns a function that
// sends one request line and reads back one reply line.
func dial(t *testing.T, stk *stack.Stack) func(req string) string {
	t.Helper()
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		handleClient(server, stk)
		close(done)
	}()
	t.Cleanup(func() {
		client.Close()
		<-done
	})
	replies := bufio.NewReader(client)
	return func(req string) string {
		t.Helper()
		if _, err := client.Write([]byte(req + "\n")); err != nil {
			t.Fatalf("%s: write: %v", req, err)
		}
		line, err := replies.ReadString('\n')
		if err != nil {
			t.Fatalf("%s: read: %v", req, err)
		}
		return strings.TrimSuffix(line, "\n")
	}
}

func TestClientProtocol(t *testing.T) {
	stks := cluster(t)
	ask := dial(t, stks[0])
	for _, c := range []struct{ req, want string }{
		{"PUT k hello world", "OK"},
		{"GET k", "OK hello world"},
		{"MPUT a 1 b 2 c 3", "OK"},
		{"MGET a b c missing", "OK 1 2 3 -"},
	} {
		if got := ask(c.req); got != c.want {
			t.Errorf("%s answered %q, want %q", c.req, got, c.want)
		}
	}
	if got := ask("RESIZE 2"); got != "OK 2 shards" {
		t.Errorf("RESIZE 2 on a one-group node answered %q, want OK 2 shards", got)
	}
	if got := ask("MGET a b c missing"); got != "OK 1 2 3 -" {
		t.Errorf("MGET after the resize answered %q, want OK 1 2 3 -", got)
	}
}

// TestDiagnosticVerbsAreGone checks that the client port serves clients
// only: each verb that once copied a metrics-listener endpoint now gets
// the usage line.
func TestDiagnosticVerbsAreGone(t *testing.T) {
	stks := cluster(t)
	for _, req := range []string{"STATS", "TRACE c0.1", "DIAGNOSE", "FLIGHT", "AUDIT", "WORKLOAD"} {
		// One connection per verb: only the first reply line is read, so a
		// reply of several lines must not stall the next request.
		if got := dial(t, stks[0])(req); !strings.HasPrefix(got, "ERR usage: ") {
			t.Errorf("%s answered %q, want the ERR usage line", req, got)
		}
	}
}

func TestParseMPut(t *testing.T) {
	for _, c := range []struct {
		line    string
		wantErr bool
		want    []command.Command
	}{
		{line: "MPUT", wantErr: true},
		{line: "MPUT a", wantErr: true},
		{line: "MPUT a 1 b", wantErr: true},
		{line: "MPUT a 1", want: []command.Command{command.Put("a", []byte("1"))}},
		{line: "MPUT a 1 b 2", want: []command.Command{command.Put("a", []byte("1")), command.Put("b", []byte("2"))}},
	} {
		cmd, err := parseMPut(c.line)
		if c.wantErr {
			if err == nil {
				t.Errorf("%q: parsed %+v, want an error", c.line, cmd)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", c.line, err)
			continue
		}
		got := []command.Command{cmd}
		if len(c.want) > 1 {
			if cmd.Op != command.OpBatch {
				t.Errorf("%q: op %v, want a batch", c.line, cmd.Op)
				continue
			}
			if got, err = batch.Unpack(cmd); err != nil {
				t.Errorf("%q: not a batch: %v", c.line, err)
				continue
			}
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%q: got %+v, want %+v", c.line, got, c.want)
		}
	}
}
