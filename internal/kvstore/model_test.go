package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

// The reference model keeps, per key, the ENTIRE list of versions — what
// the history starts from (absence, or an imported value, at the zero
// stamp) and every write since — and answers every read from the
// definitions: the answer is the newest version, in apply order, visible
// at the read point; the store owes it while it is among the versions the
// retention rule keeps — the newest, plus one more for every write applied
// while a read was registered (at most versionRing), none after a write
// applied while none was.

type refWrite struct {
	epoch uint32
	ts    timestamp.Timestamp
	val   []byte
	// present is false only for the absence a key's first write replaced.
	present bool
}

type refKey struct {
	versions []refWrite // never empty; an import starts the list over
	retained int        // versions below the newest the store still holds
	writes   int        // writes ever applied to the key, imports or not
}

type refStore struct {
	keys    map[string]*refKey
	applied int64
	readers int
}

func (w refWrite) visibleAt(epoch uint32, ts timestamp.Timestamp) bool {
	if w.epoch < epoch {
		return true
	}
	return w.epoch == epoch && (w.ts == ts || w.ts.Less(ts))
}

func (k *refKey) cur() []byte { return k.versions[len(k.versions)-1].val }

// oldest is the index of the oldest version the retention rule keeps.
func (k *refKey) oldest() int { return len(k.versions) - 1 - k.retained }

func (r *refStore) imp(key string, val []byte) {
	k := r.keys[key]
	if k == nil {
		k = &refKey{}
		r.keys[key] = k
	}
	k.versions, k.retained = []refWrite{{val: val, present: true}}, 0
}

// apply executes one put or add at a stamp and returns the command's
// result.
func (r *refStore) apply(cmd command.Command, ts timestamp.Timestamp) []byte {
	r.applied++
	k := r.keys[cmd.Key]
	if k == nil {
		k = &refKey{versions: []refWrite{{}}}
		r.keys[cmd.Key] = k
	}
	var val, result []byte
	switch cmd.Op {
	case command.OpPut:
		val = cmd.Value
	case command.OpAdd:
		var cur int64
		if len(k.cur()) == 8 {
			cur = int64(binary.BigEndian.Uint64(k.cur()))
		}
		val = make([]byte, 8)
		binary.BigEndian.PutUint64(val, uint64(cur+cmd.AddDelta()))
		result = val
	}
	if r.readers > 0 {
		k.retained = min(k.retained+1, versionRing)
	} else {
		k.retained = 0
	}
	k.versions = append(k.versions, refWrite{epoch: cmd.Epoch, ts: ts, val: val, present: true})
	k.writes++
	return result
}

// exact answers a read from the full history: the newest visible version
// and its index. A key's first version carries the zero stamp, so there
// always is one.
func (r *refStore) exact(key string, epoch uint32, ts timestamp.Timestamp) (val []byte, present bool, idx int) {
	k := r.keys[key]
	if k == nil {
		return nil, false, 0
	}
	for idx = len(k.versions) - 1; !k.versions[idx].visibleAt(epoch, ts); idx-- {
	}
	return k.versions[idx].val, k.versions[idx].present, idx
}

// getAt is what the store must answer: exact's, or uncovered when the
// retention rule has let that version go.
func (r *refStore) getAt(key string, epoch uint32, ts timestamp.Timestamp) (val []byte, present, covered bool) {
	val, present, idx := r.exact(key, epoch, ts)
	if k := r.keys[key]; k != nil && idx < k.oldest() {
		return nil, false, false
	}
	return val, present, true
}

func (r *refStore) snapshotAt(keys []string, epoch uint32, ts timestamp.Timestamp) (vals [][]byte, present []bool, hidden timestamp.Timestamp, covered bool) {
	for _, key := range keys {
		v, p, c := r.getAt(key, epoch, ts)
		if !c {
			k := r.keys[key]
			for _, w := range k.versions[k.oldest():] {
				hidden = timestamp.Max(hidden, w.ts)
			}
			return nil, nil, hidden, false
		}
		vals, present = append(vals, v), append(present, p)
	}
	return vals, present, timestamp.Zero, true
}

// openRead is a registered read of the test: its read point, at or above
// every stamp applied when it registered, and each key's write count then.
type openRead struct {
	epoch    uint32
	ts       timestamp.Timestamp
	writesAt map[string]int
}

// TestStoreMatchesFullHistoryModel drives the store and the reference with
// the same seeded stream of imports, puts, adds, atomic units and reads
// registering and ending over 32 keys — stamps mostly rising, sometimes
// equal, sometimes older, with the occasional jump far back so that a
// key's oldest retained version can carry a higher stamp than the newer
// ones — and compares every read surface after every step. Two
// assertions are the retention contract: a covered answer, registered or
// not, is the full history's answer (never a wrong value); and a read that
// registered at a point at or above every stamp applied by then is covered
// on every key written at most versionRing times since.
func TestStoreMatchesFullHistoryModel(t *testing.T) {
	const (
		seeds = 4
		steps = 10000
		nkeys = 32
	)
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			s := New()
			ref := &refStore{keys: make(map[string]*refKey)}
			keyName := func(i int) string { return fmt.Sprintf("k%02d", i) }
			// Half the traffic goes to one hot key that moves now and then,
			// so retained lists fill, evict and go uncovered within a few
			// steps.
			hot := 0
			pickKey := func() string {
				if rng.Intn(2) == 0 {
					return keyName(hot)
				}
				return keyName(rng.Intn(nkeys))
			}
			value := func() []byte {
				switch rng.Intn(30) {
				case 0: // empty, as the codec decodes it: present, never absent
					return nil
				case 1:
					return []byte{}
				}
				if rng.Intn(3) == 0 { // 8 bytes: what an add reads as a number
					v := make([]byte, 8)
					binary.BigEndian.PutUint64(v, uint64(rng.Intn(1000)))
					return v
				}
				return []byte(fmt.Sprintf("v%d", rng.Intn(1<<20)))
			}
			epoch, seq := uint32(0), uint64(1000)
			// front is the highest stamp applied so far, in read-point
			// order: what a real read's stamp is issued above.
			var front refWrite
			stamp := func() (uint32, timestamp.Timestamp) {
				e, q := epoch, seq
				switch p := rng.Intn(1000); {
				case p < 200: // equal to the last one issued
				case p < 300: // a little older
					q = seq - uint64(rng.Intn(20))
				case p < 330: // far back, and staying there
					if seq > 500 {
						seq -= uint64(rng.Intn(80))
					}
					q = seq
				case p < 360: // an older epoch's straggler
					if e > 0 {
						e -= uint32(1 + rng.Intn(int(e)))
					}
				case p < 365: // a resize
					epoch++
					e = epoch
				default: // rising
					seq += uint64(1 + rng.Intn(3))
					q = seq
				}
				ts := timestamp.Timestamp{Seq: q, Node: timestamp.NodeID(rng.Intn(3))}
				if front.visibleAt(e, ts) {
					front = refWrite{epoch: e, ts: ts}
				}
				return e, ts
			}
			write := func(e uint32) command.Command {
				var cmd command.Command
				if rng.Intn(4) == 0 {
					cmd = command.Add(pickKey(), int64(rng.Intn(9)-4))
				} else {
					cmd = command.Put(pickKey(), value())
				}
				cmd.Epoch = e
				return cmd
			}
			var open []openRead

			for step := 0; step < steps; step++ {
				if rng.Intn(40) == 0 {
					hot = rng.Intn(nkeys)
				}
				var touched []string
				switch p := rng.Intn(100); {
				case p < 4:
					snap := make(map[string][]byte)
					for i := 1 + rng.Intn(3); i > 0; i-- {
						k := pickKey()
						snap[k] = value()
						touched = append(touched, k)
					}
					s.Import(snap)
					for k, v := range snap {
						ref.imp(k, v)
					}
				case p < 8: // a read registers, then takes its stamp
					if len(open) == 2 {
						break
					}
					s.BeginRead()
					ref.readers++
					r := openRead{epoch: front.epoch, ts: front.ts, writesAt: make(map[string]int)}
					r.ts.Seq += uint64(rng.Intn(3))
					for k, rk := range ref.keys {
						r.writesAt[k] = rk.writes
					}
					open = append(open, r)
				case p < 14: // a read returns
					if len(open) == 0 {
						break
					}
					i := rng.Intn(len(open))
					open = append(open[:i], open[i+1:]...)
					s.EndRead()
					ref.readers--
				case p < 82:
					e, ts := stamp()
					cmd := write(e)
					touched = append(touched, cmd.Key)
					if got, want := s.ApplyAt(cmd, ts), ref.apply(cmd, ts); !bytes.Equal(got, want) {
						t.Fatalf("step %d: ApplyAt(%v) returned %x, model %x", step, cmd, got, want)
					}
				default:
					e, ts := stamp()
					unit := make([]command.Command, 2+rng.Intn(3))
					want := make([][]byte, len(unit))
					for i := range unit {
						unit[i] = write(e)
						touched = append(touched, unit[i].Key)
						want[i] = ref.apply(unit[i], ts)
					}
					got := s.ApplyAllAt(unit, ts)
					for i := range unit {
						if !bytes.Equal(got[i], want[i]) {
							t.Fatalf("step %d: ApplyAllAt op %d (%v) returned %x, model %x", step, i, unit[i], got[i], want[i])
						}
					}
				}

				// Current state: every key, present or not.
				if s.Len() != len(ref.keys) || s.Applied() != ref.applied {
					t.Fatalf("step %d: Len %d Applied %d, model %d %d", step, s.Len(), s.Applied(), len(ref.keys), ref.applied)
				}
				exp := s.Export(nil)
				if len(exp) != len(ref.keys) {
					t.Fatalf("step %d: Export has %d keys, model %d", step, len(exp), len(ref.keys))
				}
				retained := 0
				for i := 0; i < nkeys; i++ {
					k := keyName(i)
					got, ok := s.Get(k)
					rk := ref.keys[k]
					if ok != (rk != nil) || (ok && (got == nil || !bytes.Equal(got, rk.cur()))) {
						t.Fatalf("step %d: Get(%s) = %x (nil %v),%v, model %+v", step, k, got, got == nil, ok, rk)
					}
					if ev, eok := exp[k]; eok != ok || !bytes.Equal(ev, got) {
						t.Fatalf("step %d: Export[%s] = %x,%v, Get %x,%v", step, k, ev, eok, got, ok)
					}
					if ok {
						retained += rk.retained
					}
				}
				if got := s.RetainedVersions(); got != retained {
					t.Fatalf("step %d: RetainedVersions %d, model %d", step, got, retained)
				}

				// Versioned reads: the keys this step touched and two others,
				// at read points on, beside and far from their stamps.
				probe := append(touched, keyName(rng.Intn(nkeys)), keyName(rng.Intn(nkeys)))
				for _, k := range probe {
					points := []timestamp.Timestamp{{}, {Seq: seq + 10}, {Seq: seq - uint64(rng.Intn(120)), Node: timestamp.NodeID(rng.Intn(3))}}
					if rk := ref.keys[k]; rk != nil && len(rk.versions) > 1 {
						w := rk.versions[len(rk.versions)-1-rng.Intn(min(len(rk.versions)-1, versionRing+2))]
						points = append(points, w.ts, timestamp.Timestamp{Seq: w.ts.Seq - 1, Node: w.ts.Node}, timestamp.Timestamp{Seq: w.ts.Seq, Node: w.ts.Node + 1})
					}
					for _, at := range points {
						for _, e := range []uint32{epoch, epoch - uint32(rng.Intn(int(epoch)+1)), epoch + 1} {
							gv, gp, gc := s.GetAt(k, e, at)
							if xv, xp, _ := ref.exact(k, e, at); gc && (gp != xp || !bytes.Equal(gv, xv)) {
								t.Fatalf("step %d: GetAt(%s, epoch %d, %v) covered with %x,%v, the full history says %x,%v", step, k, e, at, gv, gp, xv, xp)
							}
							wv, wp, wc := ref.getAt(k, e, at)
							if gc != wc || gp != wp || !bytes.Equal(gv, wv) || gp == (gv == nil) {
								t.Fatalf("step %d: GetAt(%s, epoch %d, %v) = %x,%v,%v, model %x,%v,%v", step, k, e, at, gv, gp, gc, wv, wp, wc)
							}
						}
					}
					// Every registered read still finds its point on a key
					// written at most versionRing times since it registered.
					for _, r := range open {
						if rk := ref.keys[k]; rk != nil && rk.writes-r.writesAt[k] > versionRing {
							continue
						}
						gv, gp, gc := s.GetAt(k, r.epoch, r.ts)
						if xv, xp, _ := ref.exact(k, r.epoch, r.ts); !gc || gp != xp || !bytes.Equal(gv, xv) {
							t.Fatalf("step %d: registered read of %s at epoch %d, %v = %x,%v covered=%v, the full history says %x,%v", step, k, r.epoch, r.ts, gv, gp, gc, xv, xp)
						}
					}
				}
				at := timestamp.Timestamp{Seq: seq - uint64(rng.Intn(150)), Node: timestamp.NodeID(rng.Intn(3))}
				e := epoch - uint32(rng.Intn(min(int(epoch), 2)+1))
				gv, gp, gh, gc := s.SnapshotAt(probe, e, at)
				wv, wp, wh, wc := ref.snapshotAt(probe, e, at)
				if gc != wc || gh != wh || len(gv) != len(wv) {
					t.Fatalf("step %d: SnapshotAt(%v, epoch %d, %v) covered %v hidden %v (%d values), model %v %v (%d)", step, probe, e, at, gc, gh, len(gv), wc, wh, len(wv))
				}
				for i := range wv {
					if gp[i] != wp[i] || !bytes.Equal(gv[i], wv[i]) {
						t.Fatalf("step %d: SnapshotAt(%v, epoch %d, %v)[%d] = %x,%v, model %x,%v", step, probe, e, at, i, gv[i], gp[i], wv[i], wp[i])
					}
				}
			}
		})
	}
}
