package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strings"
)

// httpHandler aliases http.Handler so obs.go's Registry definition does
// not need the net/http import spelled there.
type httpHandler = http.Handler

// Handle mounts an extra endpoint on the observability surface — the
// diagnosis layer adds /debugz (stall bundles) and /tracez (ring dumps)
// this way. Call before Handler; later registrations of the same
// pattern replace earlier ones. Nil-safe like every Registry method.
func (r *Registry) Handle(pattern string, h http.Handler) {
	if r == nil || pattern == "" || h == nil {
		return
	}
	r.mu.Lock()
	r.handlers[pattern] = h
	r.mu.Unlock()
}

// Handler returns the node's observability HTTP surface:
//
//	/metrics       Prometheus text exposition
//	/statusz       the same registry as indented JSON, with quantiles
//	/healthz       liveness: 200 while the process serves
//	/readyz        readiness: 200 once the SetReady probe passes
//	/debug/pprof/  the standard runtime profiles
//
// plus whatever Handle mounted (/debugz, /tracez on a full node).
// The handler holds no state beyond the registry; serving it on a
// dedicated listener (caesar-server -metrics-addr) keeps the scrape
// surface off the client port.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	r.mu.RLock()
	for pattern, h := range r.handlers {
		mux.Handle(pattern, h)
	}
	r.mu.RUnlock()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = r.WriteJSON(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		if r.Ready() {
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write([]byte("ready\n"))
			return
		}
		http.Error(w, "not ready", http.StatusServiceUnavailable)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeJSON answers a diagnosis endpoint (/tracez, /auditz, /workloadz)
// with v as an indented JSON document.
func ServeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // best-effort write to a closing client
}

// fetchLimit bounds how much of a peer's answer FetchJSON reads.
const fetchLimit = 16 << 20

// FetchJSON is the client half of ServeJSON: GET url, read a bounded
// body, require 200 and decode it as a T. A nil client is
// http.DefaultClient.
func FetchJSON[T any](ctx context.Context, client *http.Client, url string) (T, error) {
	var v T
	if client == nil {
		client = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return v, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, fetchLimit))
	if err != nil {
		return v, err
	}
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if err := json.Unmarshal(body, &v); err != nil {
		var zero T // not a half-decoded v
		return zero, fmt.Errorf("bad JSON: %v", err)
	}
	return v, nil
}

// NodeURLs splits a comma-separated list of nodes' base URLs (a -nodes or
// -audit-peers flag), trimming spaces and dropping empty entries: a
// trailing comma must not become a phantom node that never answers.
func NodeURLs(list string) []string {
	var urls []string
	for _, u := range strings.Split(list, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	return urls
}
