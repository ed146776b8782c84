package caesar

import "github.com/caesar-consensus/caesar/internal/flight"

// Diagnosis is one assembled stall-diagnosis bundle from the node's stall
// watchdog, which every node runs (10s threshold, scanned every second):
// the tripped stall probes (none for an on-demand bundle of a healthy
// node) plus every diagnostic section a node carries — the wedged
// commands' traced histories, the commit table's pending detail, the
// rebalance coordinator's transition state, the flight-recorder tail and,
// on trips, a goroutine profile. Bundles come from Node.Diagnose and
// Node.LastStall, and from the server's /debugz endpoint.
type Diagnosis struct {
	inner *flight.Diagnosis
}

// Stalled reports whether the bundle contains at least one stall (a
// probe above its threshold at assembly time).
func (d Diagnosis) Stalled() bool {
	return d.inner != nil && len(d.inner.Stalls) > 0
}

// Stalls renders the tripped probes, likeliest root cause (oldest)
// first; empty for a healthy bundle.
func (d Diagnosis) Stalls() []string {
	if d.inner == nil {
		return nil
	}
	out := make([]string, len(d.inner.Stalls))
	for i, s := range d.inner.Stalls {
		out[i] = s.String()
	}
	return out
}

// String renders the whole bundle for operators.
func (d Diagnosis) String() string { return d.inner.Render() }

// Diagnose assembles an on-demand diagnosis bundle right now, regardless
// of thresholds.
func (n *Node) Diagnose() Diagnosis {
	return Diagnosis{inner: n.stk.Watchdog.Diagnose()}
}

// LastStall returns the most recent watchdog trip's bundle — kept after
// the stall clears, for post-mortems — and whether one exists. It is the
// pull form of a stall notification: poll it, or Diagnose, to learn of
// stalls.
func (n *Node) LastStall() (Diagnosis, bool) {
	d := n.stk.Watchdog.Last()
	return Diagnosis{inner: d}, d != nil
}

// FlightLog renders the newest max events of the node's flight recorder
// (the always-on journal of node-level events: recovery, suspects,
// retransmits, resizes, WAL snapshots, watchdog trips), oldest-first,
// one per line.
func (n *Node) FlightLog(max int) string {
	return flight.Format(n.stk.Flight.Tail(max))
}
