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

// The reference model keeps, per key, the current value and the ENTIRE
// list of recorded writes, and answers every read from the definitions:
// the last versionRing writes are the window, the write before them — or,
// while there is none, the state the first write found — is the base.

type refWrite struct {
	epoch uint32
	ts    timestamp.Timestamp
	val   []byte
	// present is false only for the base of a key the first write created.
	present bool
}

type refKey struct {
	cur    []byte
	writes []refWrite
	found  refWrite // what the first recorded write found, at the zero stamp
}

type refStore struct {
	keys    map[string]*refKey
	applied int64
}

func (w refWrite) visibleAt(epoch uint32, ts timestamp.Timestamp) bool {
	if w.epoch < epoch {
		return true
	}
	return w.epoch == epoch && (w.ts == ts || w.ts.Less(ts))
}

// window returns the key's retained versions, oldest first, and its base.
func (k *refKey) window() ([]refWrite, refWrite) {
	if n := len(k.writes); n > versionRing {
		return k.writes[n-versionRing:], k.writes[n-versionRing-1]
	}
	return k.writes, k.found
}

func (r *refStore) imp(key string, val []byte) {
	k := r.keys[key]
	if k == nil {
		k = &refKey{}
		r.keys[key] = k
	}
	k.cur = val
}

// apply executes one put or add at a stamp and returns the command's
// result.
func (r *refStore) apply(cmd command.Command, ts timestamp.Timestamp) []byte {
	r.applied++
	k := r.keys[cmd.Key]
	var val, result []byte
	switch cmd.Op {
	case command.OpPut:
		val = cmd.Value
	case command.OpAdd:
		var cur int64
		if k != nil && len(k.cur) == 8 {
			cur = int64(binary.BigEndian.Uint64(k.cur))
		}
		val = make([]byte, 8)
		binary.BigEndian.PutUint64(val, uint64(cur+cmd.AddDelta()))
		result = val
	}
	if k == nil {
		k = &refKey{}
		r.keys[cmd.Key] = k
	} else if len(k.writes) == 0 {
		k.found = refWrite{val: k.cur, present: true}
	}
	k.writes = append(k.writes, refWrite{epoch: cmd.Epoch, ts: ts, val: val, present: true})
	k.cur = val
	return result
}

func (r *refStore) getAt(key string, epoch uint32, ts timestamp.Timestamp) (val []byte, present, covered bool) {
	k := r.keys[key]
	if k == nil {
		return nil, false, true
	}
	if len(k.writes) == 0 {
		return k.cur, true, true
	}
	win, base := k.window()
	for i := len(win) - 1; i >= 0; i-- {
		if win[i].visibleAt(epoch, ts) {
			return win[i].val, true, true
		}
	}
	if base.visibleAt(epoch, ts) {
		return base.val, base.present, true
	}
	return nil, false, false
}

func (r *refStore) snapshotAt(keys []string, epoch uint32, ts timestamp.Timestamp) (vals [][]byte, present []bool, hidden timestamp.Timestamp, covered bool) {
	for _, key := range keys {
		v, p, c := r.getAt(key, epoch, ts)
		if !c {
			win, base := r.keys[key].window()
			hidden = base.ts
			for _, w := range win {
				hidden = timestamp.Max(hidden, w.ts)
			}
			return nil, nil, hidden, false
		}
		vals, present = append(vals, v), append(present, p)
	}
	return vals, present, timestamp.Zero, true
}

// TestStoreMatchesFullHistoryModel drives the store and the reference with
// the same seeded stream of imports, puts, adds and atomic units over 32
// keys — stamps mostly rising, sometimes equal, sometimes older, with the
// occasional jump far back so that a key's base can carry a higher stamp
// than its whole window — and compares every read surface after every
// step.
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
			// so windows fill, evict and go uncovered within a few steps.
			hot := 0
			pickKey := func() string {
				if rng.Intn(2) == 0 {
					return keyName(hot)
				}
				return keyName(rng.Intn(nkeys))
			}
			value := func() []byte {
				if rng.Intn(3) == 0 { // 8 bytes: what an add reads as a number
					v := make([]byte, 8)
					binary.BigEndian.PutUint64(v, uint64(rng.Intn(1000)))
					return v
				}
				return []byte(fmt.Sprintf("v%d", rng.Intn(1<<20)))
			}
			epoch, seq := uint32(0), uint64(1000)
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
				return e, timestamp.Timestamp{Seq: q, Node: timestamp.NodeID(rng.Intn(3))}
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
				case p < 80:
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
				for i := 0; i < nkeys; i++ {
					k := keyName(i)
					got, ok := s.Get(k)
					rk := ref.keys[k]
					if ok != (rk != nil) || (ok && !bytes.Equal(got, rk.cur)) {
						t.Fatalf("step %d: Get(%s) = %x,%v, model %+v", step, k, got, ok, rk)
					}
					if ev, eok := exp[k]; eok != ok || !bytes.Equal(ev, got) {
						t.Fatalf("step %d: Export[%s] = %x,%v, Get %x,%v", step, k, ev, eok, got, ok)
					}
				}

				// Versioned reads: the keys this step touched and two others,
				// at read points on, beside and far from their stamps.
				probe := append(touched, keyName(rng.Intn(nkeys)), keyName(rng.Intn(nkeys)))
				for _, k := range probe {
					points := []timestamp.Timestamp{{}, {Seq: seq + 10}, {Seq: seq - uint64(rng.Intn(120)), Node: timestamp.NodeID(rng.Intn(3))}}
					if rk := ref.keys[k]; rk != nil && len(rk.writes) > 0 {
						w := rk.writes[len(rk.writes)-1-rng.Intn(min(len(rk.writes), versionRing+2))]
						points = append(points, w.ts, timestamp.Timestamp{Seq: w.ts.Seq - 1, Node: w.ts.Node}, timestamp.Timestamp{Seq: w.ts.Seq, Node: w.ts.Node + 1})
					}
					for _, at := range points {
						for _, e := range []uint32{epoch, epoch - uint32(rng.Intn(int(epoch)+1)), epoch + 1} {
							gv, gp, gc := s.GetAt(k, e, at)
							wv, wp, wc := ref.getAt(k, e, at)
							if gc != wc || gp != wp || !bytes.Equal(gv, wv) {
								t.Fatalf("step %d: GetAt(%s, epoch %d, %v) = %x,%v,%v, model %x,%v,%v", step, k, e, at, gv, gp, gc, wv, wp, wc)
							}
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
