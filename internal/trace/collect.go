package trace

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/obs"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// Cross-node trace collection. Over TCP every node records into its own
// ring, so one ring only reconstructs one replica's view of a
// command. The pieces here close the loop: Handler serves a node's ring
// as JSON (/tracez), Collect fetches every node's events for a command,
// and MergeTimelines interleaves them into one causally-ordered cluster
// timeline. Ordering never consults wall clocks — replicas' clocks are
// not comparable — only the command's logical timestamps and each ring's
// per-node append sequence.

// NodeDump is one node's /tracez answer: the matching events plus enough
// ring state to distinguish "never traced here" from "evicted by wrap".
type NodeDump struct {
	Node timestamp.NodeID `json:"node"`
	// Cmd echoes the queried command ("" for a whole-ring dump).
	Cmd string `json:"cmd"`
	// Appended and Wrapped describe the whole ring, not the filtered
	// selection: a miss with Wrapped=false is authoritative, a miss with
	// Wrapped=true may be eviction.
	Appended uint64  `json:"appended"`
	Wrapped  bool    `json:"wrapped"`
	Events   []Event `json:"events"`
	// Err carries a per-node collection failure when assembled by
	// Collect; never set by Handler.
	Err string `json:"err,omitempty"`
}

// Miss explains an empty Events slice for operators.
func (d NodeDump) Miss(cmd command.ID) string {
	switch {
	case d.Err != "":
		return fmt.Sprintf("%v: unreachable: %s", d.Node, d.Err)
	case len(d.Events) > 0:
		return ""
	case d.Wrapped:
		return fmt.Sprintf("%v: no events for %v — ring wrapped after %d events, so its history may have been evicted", d.Node, cmd, d.Appended)
	default:
		return fmt.Sprintf("%v: no events for %v — not in local ring (never traced on this node)", d.Node, cmd)
	}
}

// Handler serves the ring over HTTP as JSON. With ?cmd=c<node>.<seq> it
// returns that command's history; without it, the whole ring tail.
// Mounted as /tracez on the node's metrics server.
func Handler(self timestamp.NodeID, ring *Ring) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		appended, wrapped := ring.Stats()
		dump := NodeDump{Node: self, Appended: appended, Wrapped: wrapped}
		if q := req.URL.Query().Get("cmd"); q != "" {
			id, err := command.ParseID(q)
			if err != nil {
				http.Error(w, fmt.Sprintf("bad cmd %q: %v", q, err), http.StatusBadRequest)
				return
			}
			dump.Cmd = id.String()
			dump.Events = ring.CommandHistory(id)
		} else {
			dump.Events = ring.Snapshot()
		}
		obs.ServeJSON(w, dump)
	})
}

// Collect fetches one command's dump from every node's /tracez endpoint.
// Per-node failures land in the dump's Err field instead of aborting the
// sweep — a cluster with one dead node is exactly when a trace matters.
func Collect(ctx context.Context, client *http.Client, urls []string, cmd command.ID) []NodeDump {
	dumps := make([]NodeDump, len(urls))
	for i, base := range urls {
		url := strings.TrimRight(base, "/") + "/tracez?cmd=" + cmd.String()
		dump, err := obs.FetchJSON[NodeDump](ctx, client, url)
		if err != nil {
			// Attribute unreachable nodes by slot so the report still
			// names them distinctly.
			dump = NodeDump{Node: timestamp.NodeID(i), Err: err.Error()}
		}
		dumps[i] = dump
	}
	return dumps
}

// MergeTimelines interleaves per-node event histories into one causally
// ordered cluster timeline. Each node's slice must be in its ring's
// append order (as Snapshot/CommandHistory return it); that per-node
// order is always preserved — the merge only ever consumes queue heads.
// Across nodes, events order by effective logical timestamp (an event
// with a zero timestamp, e.g. a recovery prepare, inherits the last
// non-zero timestamp before it on its node), tied first by timestamp
// then by node ID. Wall clocks never participate: they are not
// comparable across machines.
func MergeTimelines(perNode [][]Event) []Event {
	type queue struct {
		events []Event
		eff    []timestamp.Timestamp
		i      int
	}
	var queues []*queue
	total := 0
	for _, events := range perNode {
		if len(events) == 0 {
			continue
		}
		eff := make([]timestamp.Timestamp, len(events))
		var last timestamp.Timestamp
		for i, e := range events {
			if !e.Time.IsZero() {
				last = e.Time
			}
			eff[i] = last
		}
		queues = append(queues, &queue{events: events, eff: eff})
		total += len(events)
	}
	// Deterministic seed order regardless of caller's slice order.
	sort.Slice(queues, func(a, b int) bool {
		return queues[a].events[0].Node < queues[b].events[0].Node
	})
	out := make([]Event, 0, total)
	for len(queues) > 0 {
		best := 0
		for i := 1; i < len(queues); i++ {
			a, b := queues[i], queues[best]
			ea, eb := a.eff[a.i], b.eff[b.i]
			if ea.Less(eb) || (ea == eb && a.events[a.i].Node < b.events[b.i].Node) {
				best = i
			}
		}
		q := queues[best]
		out = append(out, q.events[q.i])
		q.i++
		if q.i == len(q.events) {
			queues = append(queues[:best], queues[best+1:]...)
		}
	}
	return out
}

// MergeDumps is MergeTimelines over collected node dumps.
func MergeDumps(dumps []NodeDump) []Event {
	perNode := make([][]Event, 0, len(dumps))
	for _, d := range dumps {
		perNode = append(perNode, d.Events)
	}
	return MergeTimelines(perNode)
}

// FormatTimeline renders a merged cluster timeline, one event per line,
// with each event attributed to its node and ring sequence.
func FormatTimeline(events []Event) string {
	var b strings.Builder
	for _, e := range events {
		fmt.Fprintf(&b, "%v#%d %s cmd=%v ts=%v", e.Node, e.Seq, e.Kind, e.Cmd, e.Time)
		if !e.At.IsZero() {
			fmt.Fprintf(&b, " at=%s", e.At.Format("15:04:05.000000"))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
