package kvstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// TestExportImportRoundTripProperty drives Export/Import — now the
// durable snapshot codec (internal/wal) besides the shard-handoff
// transfer — over randomly generated stores: empty values, long binary
// blobs, keys with separators and non-ASCII bytes must all round-trip
// bit-exactly, and both directions must copy rather than alias.
func TestExportImportRoundTripProperty(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := New()
		n := rng.Intn(200)
		type entry struct {
			key string
			val []byte
		}
		var entries []entry
		for i := 0; i < n; i++ {
			var key string
			switch rng.Intn(4) {
			case 0:
				key = fmt.Sprintf("plain-%d", rng.Intn(1000))
			case 1:
				key = fmt.Sprintf("nested/%d/%d", rng.Intn(10), rng.Intn(10))
			case 2:
				key = string([]byte{byte(rng.Intn(256)), 0, byte(rng.Intn(256))})
			default:
				key = fmt.Sprintf("k%d\xff\x00tail", i)
			}
			val := make([]byte, rng.Intn(512))
			rng.Read(val)
			if rng.Intn(10) == 0 {
				val = []byte{}
			}
			src.Import(map[string][]byte{key: val})
			entries = append(entries, entry{key, val})
		}

		snap := src.Export(nil)
		dst := New()
		dst.Import(snap)

		// Everything present, bit-exact.
		if dst.Len() != src.Len() {
			t.Fatalf("seed %d: len %d != %d", seed, dst.Len(), src.Len())
		}
		for _, e := range entries {
			want, _ := src.Get(e.key)
			got, ok := dst.Get(e.key)
			if !ok || !bytes.Equal(got, want) {
				t.Fatalf("seed %d: key %q: got %v ok=%v, want %v", seed, e.key, got, ok, want)
			}
		}

		// The snapshot is a copy: mutating it must not reach either store.
		for k := range snap {
			if len(snap[k]) > 0 {
				snap[k][0] ^= 0xff
				want, _ := src.Get(k)
				if bytes.Equal(snap[k], want) && len(want) > 0 {
					t.Fatalf("seed %d: Export aliases store memory for %q", seed, k)
				}
				break
			}
		}

		// Import copies too.
		buf := []byte("mutable")
		dst.Import(map[string][]byte{"alias-check": buf})
		buf[0] = 'X'
		if got, _ := dst.Get("alias-check"); string(got) != "mutable" {
			t.Fatalf("seed %d: Import aliases caller memory: %q", seed, got)
		}
	}
}

// An imported key is one version at the zero stamp, whatever the key held
// before: the import is what every read point sees — a registered read's
// included — and a divergence injected afterwards is attributed under the
// imported version's epoch, not the replaced write's.
func TestImportOverLiveKeyReplacesItsHistory(t *testing.T) {
	s := New()
	var attributed []uint32
	s.SetGroupFn(func(_ string, epoch uint32) int32 {
		attributed = append(attributed, epoch)
		return 0
	})
	reading(t, s)
	putAt(s, "k", "v1", 3, 10)
	putAt(s, "k", "v2", 3, 20)
	s.Import(map[string][]byte{"k": []byte("imported")})

	for _, at := range []uint64{0, 10, 15, 20, 1000} {
		for _, epoch := range []uint32{0, 3, 4} {
			val, present, covered := s.GetAt("k", epoch, ts(at))
			if !covered || !present || string(val) != "imported" {
				t.Fatalf("GetAt(epoch %d, %d) after Import = %q,%v,%v, want the imported value", epoch, at, val, present, covered)
			}
		}
	}
	if got := s.RetainedVersions(); got != 0 {
		t.Fatalf("RetainedVersions = %d after Import, want 0", got)
	}
	s.InjectDivergence("k")
	if last := attributed[len(attributed)-1]; last != 0 {
		t.Fatalf("InjectDivergence attributed the key under epoch %d, want the imported version's 0", last)
	}
}

func TestExportPredicateSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := New()
	for i := 0; i < 100; i++ {
		val := make([]byte, rng.Intn(64))
		rng.Read(val)
		src.Import(map[string][]byte{fmt.Sprintf("k%02d", i): val})
	}
	pred := func(key string) bool { return key < "k50" }
	snap := src.Export(pred)
	if len(snap) != 50 {
		t.Fatalf("predicate export: %d entries, want 50", len(snap))
	}
	for k := range snap {
		if !pred(k) {
			t.Fatalf("predicate export leaked %q", k)
		}
	}
}
