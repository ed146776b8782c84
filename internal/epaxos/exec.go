package epaxos

import (
	"sort"

	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// Execution: EPaxos delivers by analysing the dependency graph of committed
// instances — find the strongly connected components reachable from the
// candidate, execute components in reverse topological order and instances
// inside a component in sequence-number order. An instance whose transitive
// dependencies are not all committed yet cannot run; it parks on the first
// missing one and is retried when that instance commits. This graph
// analysis is the delivery cost the CAESAR paper contrasts with its own
// timestamp-ordered delivery (§I, §VI).

// execEpoch distinguishes Tarjan runs so aborted runs leave no stale marks.
type tarjanRun struct {
	r       *Replica
	epoch   int
	index   int
	stack   []*instance
	sccs    [][]*instance
	blocked InstanceID
	ok      bool
}

// tryExecute attempts to execute root (a committed instance) and everything
// it transitively depends on.
func (r *Replica) tryExecute(root *instance) {
	if root.status != icommitted {
		// Also wake dependents blocked on this instance if it has
		// already executed through another root.
		return
	}
	r.execEpochCtr++
	t := &tarjanRun{r: r, epoch: r.execEpochCtr, ok: true}
	t.strongconnect(root)
	if !t.ok {
		r.blockedExec[t.blocked] = append(r.blockedExec[t.blocked], root.id)
		return
	}
	for _, scc := range t.sccs {
		sort.Slice(scc, func(i, j int) bool {
			a, b := scc[i], scc[j]
			if a.seq != b.seq {
				return a.seq < b.seq
			}
			if a.id.Replica != b.id.Replica {
				return a.id.Replica < b.id.Replica
			}
			return a.id.Slot < b.id.Slot
		})
		for _, inst := range scc {
			r.execute(inst)
		}
	}
	// Executing may unblock dependents that were parked on instances in
	// the executed components; they were parked on *commits*, which had
	// already happened, so nothing further to wake here.
}

// strongconnect is Tarjan's DFS; it sets t.ok=false and t.blocked when it
// reaches a dependency that is not committed yet.
func (t *tarjanRun) strongconnect(v *instance) {
	v.dfsEpoch = t.epoch
	v.dfsIndex = t.index
	v.lowLink = t.index
	t.index++
	v.onStack = true
	t.stack = append(t.stack, v)

	for _, depID := range v.deps {
		if !t.ok {
			return
		}
		dep := t.r.instances[depID]
		if dep == nil || dep.status < icommitted {
			t.ok = false
			t.blocked = depID
			return
		}
		if dep.status == iexecuted {
			continue
		}
		if dep.dfsEpoch != t.epoch {
			t.strongconnect(dep)
			if !t.ok {
				return
			}
			if dep.lowLink < v.lowLink {
				v.lowLink = dep.lowLink
			}
		} else if dep.onStack {
			if dep.dfsIndex < v.lowLink {
				v.lowLink = dep.dfsIndex
			}
		}
	}

	if v.lowLink == v.dfsIndex {
		var scc []*instance
		for {
			w := t.stack[len(t.stack)-1]
			t.stack = t.stack[:len(t.stack)-1]
			w.onStack = false
			scc = append(scc, w)
			if w == v {
				break
			}
		}
		t.sccs = append(t.sccs, scc)
	}
}

// execute applies one instance and completes client bookkeeping.
func (r *Replica) execute(inst *instance) {
	if inst.status == iexecuted {
		return
	}
	inst.status = iexecuted
	value := r.app.ApplyAt(inst.cmd, timestamp.Zero)
	r.met.Executed.Inc()

	r.pending.Complete(r.now, inst.cmd.ID, value)
}

// wakeBlocked retries the roots that were parked on id once it commits.
func (r *Replica) wakeBlocked(id InstanceID) {
	roots := r.blockedExec[id]
	if len(roots) == 0 {
		return
	}
	delete(r.blockedExec, id)
	for _, rootID := range roots {
		if root := r.instances[rootID]; root != nil {
			r.tryExecute(root)
		}
	}
}
