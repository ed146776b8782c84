package audit

import (
	"context"
	"net/http"
	"strings"

	"github.com/caesar-consensus/caesar/internal/obs"
)

// Cross-node audit collection. Every node serves its own audit state on
// /auditz (Handler); Collect fetches every node's report, and Diff
// aligns the quotes to prove or rule out divergence. Serving and fetching
// are internal/obs's ServeJSON/FetchJSON, shared with /tracez and
// /workloadz.

// Handler serves the node's audit report over HTTP as JSON. The report
// closure is called per request so every scrape sees a fresh, internally
// consistent quote (one store lock hold). Mounted as /auditz on the
// node's metrics server.
func Handler(report func() Report) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		obs.ServeJSON(w, report())
	})
}

// Source is one auditable node: a name and a way to fetch its report.
// HTTPSource adapts a metrics listener; in-process clusters wrap a local
// closure instead.
type Source struct {
	Name  string
	Fetch func(ctx context.Context) (Report, error)
}

// HTTPSource fetches a node's report from its /auditz endpoint.
func HTTPSource(client *http.Client, base string) Source {
	return Source{
		Name: base,
		Fetch: func(ctx context.Context) (Report, error) {
			return obs.FetchJSON[Report](ctx, client, strings.TrimRight(base, "/")+"/auditz")
		},
	}
}

// Collect gathers one report per source. Per-node failures land in the
// report's Err field instead of aborting the sweep — divergence checks
// matter most when part of the cluster is misbehaving.
func Collect(ctx context.Context, sources []Source) []Report {
	reports := make([]Report, len(sources))
	for i, src := range sources {
		rep, err := src.Fetch(ctx)
		if err != nil {
			reports[i] = Report{Node: src.Name, Err: err.Error()}
			continue
		}
		if rep.Node == "" {
			rep.Node = src.Name
		}
		reports[i] = rep
	}
	return reports
}
