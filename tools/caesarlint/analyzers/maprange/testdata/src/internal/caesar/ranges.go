// Package caesar is golden input for the maprange analyzer: its import
// path ends in internal/caesar, so it is the consensus core.
package caesar

type id struct{ node, seq int }

// table hides a map behind a named type.
type table map[id]int

type replica struct {
	pending map[id][]int
	acks    table
	order   []id
	sent    []id
}

func (r *replica) send(to id) { r.sent = append(r.sent, to) }

func (r *replica) broadcastsInMapOrder() {
	for k := range r.pending { // want `range over a map \(map\[id\]\[\]int\) in the consensus core`
		r.send(k)
	}
	for k, n := range r.acks { // want `range over a map \(table\) in the consensus core`
		if n > 0 {
			r.send(k)
		}
	}
}

func (r *replica) local() {
	seen := map[string]bool{"a": true}
	for k := range seen { // want `range over a map \(map\[string\]bool\)`
		_ = k
	}
}

func (r *replica) definedOrder() {
	for _, k := range r.order { // a slice: creation order
		r.send(k)
	}
	for i := range [3]int{} {
		_ = i
	}
	for _, c := range "abc" {
		_ = c
	}
}

func (r *replica) oldest() (best id) {
	//caesarlint:allow maprange -- takes the minimum; the order cannot change the result
	for k := range r.pending {
		if best == (id{}) || k.seq < best.seq {
			best = k
		}
	}
	n := 0
	for range r.acks { //caesarlint:allow maprange -- counts entries, trailing form
		n++
	}
	_ = n
	return best
}

func (r *replica) waivedWithoutRationale() {
	//caesarlint:allow maprange
	for k := range r.pending { // want `needs a rationale`
		_ = k
	}
}
