// Package caesar is golden input for the maprange analyzer: its import
// path ends in internal/caesar, so it is the consensus core.
package caesar

import (
	"maps"
	"slices"
)

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

// The maps package's walkers hand a map's entries over in iteration order
// too: ranging over their iterator, collecting it, or passing a function
// that sees the entries one by one.
func (r *replica) walkersInMapOrder(other map[id][]int) {
	for k := range maps.Keys(r.pending) { // want `maps\.Keys walks a map in the consensus core`
		r.send(k)
	}
	for k, n := range maps.All(r.acks) { // want `maps\.All walks a map`
		if n > 0 {
			r.send(k)
		}
	}
	vals := slices.Collect(maps.Values(r.acks)) // want `maps\.Values walks a map`
	_ = vals
	keys := maps.Keys(r.pending) // want `maps\.Keys walks a map`
	_ = keys
	maps.DeleteFunc(r.acks, func(k id, n int) bool { // want `maps\.DeleteFunc walks a map`
		r.send(k)
		return n == 0
	})
	_ = maps.EqualFunc(r.pending, other, func(a, b []int) bool { // want `maps\.EqualFunc walks a map`
		return len(a) == len(b)
	})
	for k := range maps.Keys[table](r.acks) { // want `maps\.Keys walks a map`
		r.send(k)
	}
}

// Sorting the iterator puts the entries in a defined order; copying a map,
// comparing it whole or cloning it hands no entry to caller code.
func (r *replica) walkersInDefinedOrder(other map[id][]int) {
	byNode := func(a, b id) int { return a.node - b.node }
	for _, k := range slices.SortedFunc(maps.Keys(r.pending), byNode) {
		r.send(k)
	}
	for _, n := range slices.Sorted(maps.Values(r.acks)) {
		_ = n
	}
	dst := make(table, len(r.acks))
	maps.Copy(dst, r.acks)
	_ = maps.Equal(dst, r.acks)
	_ = maps.Clone(other)
	//caesarlint:allow maprange -- deletes entries and counts them; the order cannot change either
	maps.DeleteFunc(r.acks, func(_ id, n int) bool { return n == 0 })
}
