// Command caesar-audit proves — or rules out — cross-replica state
// divergence for a running cluster. Each caesar-server replica folds its
// applied writes into per-group digests and serves them on /auditz (on
// the metrics listener); caesar-audit fetches every replica's quote,
// aligns the comparable ones (same group, routing epoch, write frontier
// and command-identity fold — provably the same applied command multiset)
// and diffs their state digests. A digest mismatch between comparable
// quotes is proven divergence, reported with the full proof bundle.
//
// Usage:
//
//	caesar-audit -nodes http://127.0.0.1:9180,http://127.0.0.1:9181,http://127.0.0.1:9182
//
// One round compares a single gather; -interval > 0 keeps auditing at
// that cadence (and can additionally promote persistent same-frontier
// identity mismatches to "apply-set" divergences), -rounds bounds how
// many rounds run. Exit status: 0 when no divergence was proven, 1 when
// at least one was, 2 on usage errors. Unreachable replicas are reported
// per node; the audit proceeds with whatever the reachable ones quote.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"github.com/caesar-consensus/caesar/internal/audit"
	"github.com/caesar-consensus/caesar/internal/obs"
)

func main() {
	var (
		nodes    = flag.String("nodes", "", "comma-separated metrics base URLs, one per replica (e.g. http://h1:9180,http://h2:9180)")
		interval = flag.Duration("interval", 0, "keep auditing at this cadence (0 = one round)")
		rounds   = flag.Int("rounds", 0, "with -interval, stop after this many rounds (0 = until interrupted)")
		timeout  = flag.Duration("timeout", 5*time.Second, "per-round collection timeout")
		asJSON   = flag.Bool("json", false, "emit each round's reports, stats and divergences as JSON")
	)
	flag.Parse()
	if *nodes == "" {
		fmt.Fprintln(os.Stderr, "usage: caesar-audit -nodes <url,url,...> [-interval 2s] [-rounds n]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	client := &http.Client{Timeout: *timeout}
	var sources []audit.Source
	for _, u := range obs.NodeURLs(*nodes) {
		sources = append(sources, audit.HTTPSource(client, u))
	}
	if len(sources) == 0 {
		fmt.Fprintln(os.Stderr, "caesar-audit: -nodes named no URLs")
		os.Exit(2)
	}

	col := &audit.Collector{Sources: sources}
	diverged := false
	for round := 1; ; round++ {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		reports, fresh := col.RunOnce(ctx)
		cancel()
		_, stats := audit.Diff(reports)
		if len(fresh) > 0 {
			diverged = true
		}
		report(reports, stats, fresh, *asJSON)
		if *interval <= 0 || (*rounds > 0 && round >= *rounds) {
			break
		}
		time.Sleep(*interval)
	}
	if diverged {
		os.Exit(1)
	}
}

// report prints one round's outcome. The text form leads with the
// verdict line the CI smoke test greps for: "no divergence" with the
// comparison counts that make the pass non-vacuous, or the proof bundles.
func report(reports []audit.Report, stats audit.DiffStats, fresh []audit.Divergence, asJSON bool) {
	if asJSON {
		out := struct {
			Stats       audit.DiffStats    `json:"stats"`
			Divergences []audit.Divergence `json:"divergences"`
			Reports     []audit.Report     `json:"reports"`
		}{Stats: stats, Divergences: fresh, Reports: reports}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "caesar-audit: %v\n", err)
			os.Exit(1)
		}
		return
	}
	for _, rep := range reports {
		if rep.Err != "" {
			fmt.Fprintf(os.Stderr, "caesar-audit: %s unreachable: %s\n", rep.Node, rep.Err)
		}
	}
	if len(fresh) == 0 {
		fmt.Printf("no divergence: %d/%d comparable quote pairs matched across %d nodes, %d groups\n",
			stats.Matched, stats.Compared, stats.Nodes, stats.Groups)
		if stats.Compared == 0 && stats.Nodes > 1 {
			fmt.Println("note: 0 comparable pairs this round (replicas mid-apply or mid-resize) — the pass is vacuous, audit again")
		}
		return
	}
	for _, d := range fresh {
		fmt.Printf("DIVERGENCE %s\n", d)
	}
}
