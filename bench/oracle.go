package main

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"github.com/caesar-consensus/caesar/internal/kvstore"
	"github.com/caesar-consensus/caesar/internal/wal"
)

// The correctness oracle runs after every workload. A violation fails the
// run: the result carries correct=false and the process exits non-zero.
//
// What it cannot check from outside the program: discarding bytes written
// after the last sync (a power cut) needs a hook inside internal/wal, so
// that — like kill -9 under load — remains restart_test.go's job. The
// replay check below proves "acknowledged = durable, replay = exact" for
// a clean stop only.

// maxViolations caps the report; one broken invariant usually trips
// thousands of records.
const maxViolations = 20

type violations []string

func (v *violations) addf(format string, args ...any) {
	if len(*v) < maxViolations {
		*v = append(*v, fmt.Sprintf(format, args...))
	}
}

// quiesce waits until every live replica has applied the same number of
// commands and that number has stopped moving.
func (a *attempt) quiesce() bool {
	live := a.c.live()
	deadline := time.Now().Add(2 * opTimeout)
	var last int64 = -1
	stable := 0
	for time.Now().Before(deadline) {
		n := a.c.stacks[live[0]].Store.Applied()
		same := true
		for _, i := range live[1:] {
			if a.c.stacks[i].Store.Applied() != n {
				same = false
			}
		}
		if same && n == last {
			if stable++; stable >= 3 {
				return true
			}
		} else {
			stable = 0
		}
		last = n
		time.Sleep(20 * time.Millisecond)
	}
	return false
}

// check verifies the run against the live cluster: replicas converged to
// byte-identical stores with agreeing audit digests, no acknowledged
// write was lost, every stored value was written by an operation that
// could have written it, and local reads never went backwards.
//
// One documented gap of the program is tolerated and counted instead of
// failed: ROADMAP's "Not guaranteed: cross-shard strict serializability"
// — a single-key write ordered after a transaction's piece can apply
// before the held transaction executes, on some replicas only. Keys a
// cross-shard transaction of this run touched are therefore exempt from
// replica identity and from the lost-write check; how many of them ended
// up different across replicas is reported as a warning.
func (a *attempt) check() (violated, warnings []string) {
	var v violations
	l := a.l
	if !a.quiesce() {
		v.addf("replicas did not converge to one applied count within %v", 2*opTimeout)
	}
	keyIdx := make(map[string]int32, len(a.ks.keys))
	for i, k := range a.ks.keys {
		keyIdx[k] = int32(i)
	}
	txKey := map[int32]bool{}
	l.tab.each(func(_ int64, r *opRec) {
		if r.kind == opTx {
			txKey[r.key], txKey[r.key2] = true, true
		}
	})
	live := a.c.live()
	ref := a.c.stacks[live[0]].Store.Export(nil)
	diverged := map[string]bool{}
	for _, i := range live[1:] {
		other := a.c.stacks[i].Store.Export(nil)
		if len(other) != len(ref) {
			v.addf("store of node %d has %d keys, node %d has %d", i, len(other), live[0], len(ref))
		}
		for k, val := range ref {
			switch {
			case bytes.Equal(other[k], val):
			case txKey[keyIdx[k]]:
				diverged[k] = true
			default:
				v.addf("key %q differs between node %d and node %d", k, live[0], i)
			}
		}
	}

	// Audit digests: at an equal (epoch, frontier, idfold) cut two
	// replicas folded the same commands, so their state digests must be
	// equal; after quiesce every cut must be equal.
	refRep := a.c.stacks[live[0]].AuditReport()
	for _, i := range live[1:] {
		rep := a.c.stacks[i].AuditReport()
		for _, g := range refRep.Groups {
			og, ok := rep.Group(g.Group)
			switch {
			case !ok || og.Epoch != g.Epoch || og.Frontier != g.Frontier || og.IDFold != g.IDFold:
				v.addf("audit cut of group %d differs between node %d and node %d after quiesce", g.Group, live[0], i)
			case og.Digest != g.Digest:
				v.addf("audit digest of group %d diverged between node %d and node %d at frontier %d", g.Group, live[0], i, g.Frontier)
			}
		}
	}

	// Every stored value decodes to a write the rig submitted to that key.
	final := make(map[int32]int64, len(ref)) // key index → operation that wrote the final value
	for k, val := range ref {
		ki, known := keyIdx[k]
		_, seq, ok := decodeValue(val)
		if !known || !ok || seq < 0 || seq >= l.tab.n {
			v.addf("key %q holds a value no operation of this run wrote", k)
			continue
		}
		r := l.tab.at(seq)
		if r.kind == opRead || (r.key != ki && r.key2 != ki) || r.status.Load() == stRefused {
			v.addf("key %q holds the value of operation %d, which never wrote it", k, seq)
			continue
		}
		final[ki] = seq
	}
	// No acknowledged write is lost: its key is present, and the value
	// there was not already acknowledged before this write was issued.
	l.tab.each(func(i int64, r *opRec) {
		if r.kind == opRead || !r.ok() {
			return
		}
		for _, ki := range []int32{r.key, r.key2} {
			if ki < 0 {
				continue
			}
			f, present := final[ki]
			if !present {
				v.addf("acknowledged write %d to key %q is missing from the store", i, a.ks.keys[ki])
				continue
			}
			if fr := l.tab.at(f); f != i && !txKey[ki] && fr.ok() && fr.ack.Load() < r.issued {
				v.addf("acknowledged write %d to key %q was lost: the store holds write %d, acknowledged before it was issued", i, a.ks.keys[ki], f)
			}
		}
	})
	a.checkReads(&v)
	if n := a.c.stalls.Load(); n > 0 {
		v.addf("stall watchdog tripped %d times", n)
	}
	if len(diverged) > 0 {
		warnings = append(warnings, fmt.Sprintf("%d keys touched by cross-shard transactions differ across replicas (documented non-guarantee, see README)", len(diverged)))
	}
	return v, warnings
}

// checkReads verifies the local reads of one node on one key never go
// backwards: if a later read returns write X2 where an earlier,
// non-overlapping read returned X1, then X2 must not have been
// acknowledged before X1 was even issued. (Operation indices alone cannot
// decide this: concurrent writes from different nodes are ordered by
// consensus, not by issue order.)
func (a *attempt) checkReads(v *violations) {
	type nk struct {
		node uint8
		key  int32
	}
	l := a.l
	reads := map[nk][]*opRec{}
	l.tab.each(func(_ int64, r *opRec) {
		if r.kind != opRead || !r.ok() {
			return
		}
		switch {
		case r.got == -2 || r.got >= l.tab.n:
			v.addf("read of %q at node %d returned a value no operation wrote", a.ks.keys[r.key], r.node)
		case r.got >= 0:
			if w := l.tab.at(r.got); w.kind == opRead || (w.key != r.key && w.key2 != r.key) {
				v.addf("read of %q at node %d returned the value of operation %d, which never wrote it", a.ks.keys[r.key], r.node, r.got)
				return
			}
			reads[nk{r.node, r.key}] = append(reads[nk{r.node, r.key}], r)
		case a.cfg.w.zipfKeys > 0:
			v.addf("read of preloaded key %q at node %d found it absent", a.ks.keys[r.key], r.node)
		}
	})
	for k, rs := range reads {
		sort.Slice(rs, func(i, j int) bool { return rs[i].issued < rs[j].issued })
		for i := 1; i < len(rs); i++ {
			r1, r2 := rs[i-1], rs[i]
			if r1.ack.Load() > r2.issued || r1.got == r2.got {
				continue
			}
			x1, x2 := l.tab.at(r1.got), l.tab.at(r2.got)
			if x2.ok() && x2.ack.Load() < x1.issued {
				v.addf("reads of %q at node %d went backwards: write %d then write %d, acknowledged before the first was issued", a.ks.keys[k.key], k.node, r1.got, r2.got)
			}
		}
	}
}

// checkReplay is the durable workload's second half: stop the nodes,
// replay each data dir into a fresh store and require it to equal the
// store the node stopped with. It returns the replay cost per thousand
// applied commands.
func (a *attempt) checkReplay() (violated []string, msPerKcmd float64) {
	var v violations
	a.c.stop()
	var spent time.Duration
	var applied int64
	for i, dir := range a.c.dirs {
		want := a.c.stacks[i].Store.Export(nil)
		store := kvstore.New()
		start := time.Now()
		log, _, err := wal.OpenInto(dir, store, wal.Options{})
		spent += time.Since(start)
		if err != nil {
			v.addf("replaying node %d's data dir: %v", i, err)
			continue
		}
		if err := log.Close(); err != nil {
			v.addf("closing node %d's replayed log: %v", i, err)
		}
		applied += store.Applied()
		got := store.Export(nil)
		if len(got) != len(want) {
			v.addf("node %d replayed to %d keys, stopped with %d", i, len(got), len(want))
		}
		for k, val := range want {
			if !bytes.Equal(got[k], val) {
				v.addf("node %d: key %q differs after replay", i, k)
				break
			}
		}
	}
	if applied > 0 {
		msPerKcmd = ms(spent) / float64(applied) * 1000
	}
	return v, msPerKcmd
}
