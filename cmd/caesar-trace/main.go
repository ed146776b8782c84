// Command caesar-trace assembles a cluster-wide timeline for one
// command. Each caesar-server node traces into its own local ring, so one
// node's /tracez only shows one replica's view; caesar-trace
// fetches every node's /tracez JSON (served on the metrics listener) and
// merges the histories into one causally-ordered timeline — ordered by
// logical timestamp and per-node ring sequence, never by wall clock.
//
// Usage:
//
//	caesar-trace -nodes http://127.0.0.1:9180,http://127.0.0.1:9181,http://127.0.0.1:9182 -cmd c0.17
//
// Nodes that never traced the command, evicted it from a wrapped ring,
// or are unreachable are reported per node; the merge proceeds with
// whatever the reachable nodes hold.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/obs"
	"github.com/caesar-consensus/caesar/internal/trace"
)

func main() {
	var (
		nodes   = flag.String("nodes", "", "comma-separated metrics base URLs, one per node (e.g. http://h1:9180,http://h2:9180)")
		cmdStr  = flag.String("cmd", "", "command ID to trace, as trace lines print it (c<node>.<seq>)")
		timeout = flag.Duration("timeout", 5*time.Second, "total collection timeout")
		asJSON  = flag.Bool("json", false, "emit the merged timeline and per-node dumps as JSON")
	)
	flag.Parse()
	if *nodes == "" || *cmdStr == "" {
		fmt.Fprintln(os.Stderr, "usage: caesar-trace -nodes <url,url,...> -cmd c<node>.<seq>")
		flag.PrintDefaults()
		os.Exit(2)
	}
	id, err := command.ParseID(*cmdStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "caesar-trace: bad -cmd %q: %v\n", *cmdStr, err)
		os.Exit(2)
	}
	urls := obs.NodeURLs(*nodes)
	if len(urls) == 0 {
		fmt.Fprintln(os.Stderr, "caesar-trace: -nodes named no URLs")
		os.Exit(2)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	dumps := trace.Collect(ctx, &http.Client{Timeout: *timeout}, urls, id)
	merged := trace.MergeDumps(dumps)

	if *asJSON {
		out := struct {
			Cmd      string           `json:"cmd"`
			Timeline []trace.Event    `json:"timeline"`
			Nodes    []trace.NodeDump `json:"nodes"`
		}{Cmd: id.String(), Timeline: merged, Nodes: dumps}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "caesar-trace: %v\n", err)
			os.Exit(1)
		}
		return
	}

	for _, d := range dumps {
		if miss := d.Miss(id); miss != "" {
			fmt.Fprintln(os.Stderr, "caesar-trace:", miss)
		}
	}
	if len(merged) == 0 {
		fmt.Fprintf(os.Stderr, "caesar-trace: no events for %v on any of %d node(s)\n", id, len(urls))
		os.Exit(1)
	}
	nodesSeen := map[string]bool{}
	for _, e := range merged {
		nodesSeen[e.Node.String()] = true
	}
	fmt.Printf("== %v: %d events from %d/%d nodes\n", id, len(merged), len(nodesSeen), len(urls))
	fmt.Print(trace.FormatTimeline(merged))
}
