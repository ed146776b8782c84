package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/timestamp"
)

func TestPutGet(t *testing.T) {
	s := New()
	if v := s.ApplyAt(command.Put("k", []byte("v1")), timestamp.Zero); v != nil {
		t.Fatalf("put returned %q", v)
	}
	if v := s.ApplyAt(command.Get("k"), timestamp.Zero); string(v) != "v1" {
		t.Fatalf("get returned %q", v)
	}
	if v := s.ApplyAt(command.Get("missing"), timestamp.Zero); v != nil {
		t.Fatalf("missing key returned %q", v)
	}
	if v, ok := s.Get("k"); !ok || string(v) != "v1" {
		t.Fatal("direct Get broken")
	}
	if s.Len() != 1 || s.Applied() != 3 {
		t.Fatalf("Len=%d Applied=%d", s.Len(), s.Applied())
	}
}

// TestPutKeepsCommandValue pins the ownership rule: a command's bytes are
// immutable from submission on, so the store keeps the put's value as the
// command carries it, and overwriting a key allocates nothing.
func TestPutKeepsCommandValue(t *testing.T) {
	s := New()
	buf := []byte("original")
	s.ApplyAt(command.Put("k", buf), timestamp.Zero)
	if v, _ := s.Get("k"); len(v) != len(buf) || &v[0] != &buf[0] {
		t.Fatalf("store holds %q at %p, want the command's bytes at %p", v, v, buf)
	}
	cmd := command.Put("k", []byte("next"))
	if n := testing.AllocsPerRun(100, func() { s.ApplyAt(cmd, timestamp.Zero) }); n != 0 {
		t.Fatalf("overwriting put allocated %v times, want 0", n)
	}
}

// TestLayout pins the per-key sizes. Go allocates in size classes — 48,
// 64, 80 bytes — so an entry one word over 48 would cost 64: the version
// packs its stamp as sequence, node and epoch (a timestamp.Timestamp field
// would carry 4 bytes of padding, and the epoch 4 more), and the entry
// keeps its rarely used list of older versions behind one pointer.
func TestLayout(t *testing.T) {
	if got := unsafe.Sizeof(version{}); got != 40 {
		t.Errorf("version is %d bytes, want 40", got)
	}
	if got := unsafe.Sizeof(entry{}); got != 48 {
		t.Errorf("entry is %d bytes, want 48", got)
	}
}

// TestEntryChunkFillsItsSizeClass pins the store's entry chunk inside one
// 2,048-byte size class, its malloc header included, and within one entry
// of filling it: 16 entries of 48 bytes plus the header would land in the
// 896-byte class and waste 14 % of the chunk.
func TestEntryChunkFillsItsSizeClass(t *testing.T) {
	size := int(unsafe.Sizeof(entry{}))
	used := entriesPerChunk*size + mallocHeader
	if used > 2048 || 2048-used >= size {
		t.Errorf("%d entries of %d bytes and the header take %d bytes, want at most 2048 and within %d of it", entriesPerChunk, size, used, size)
	}
}

// TestEntriesAreNeverReused: a key's entry is a slot of the store's chunk
// and lives as long as the store. Over more than two chunks of new keys,
// written while a reader reads the keys already there, and with every
// other key imported over, each key keeps its own entry and its value.
func TestEntriesAreNeverReused(t *testing.T) {
	const n = 2*entriesPerChunk + 1
	s := New()
	key := func(i int) string { return fmt.Sprintf("k%d", i) }
	stop := make(chan struct{})
	read := make(chan struct{})
	go func() {
		defer close(read)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.Get(key(i % n))
		}
	}()
	for i := 0; i < n; i++ {
		s.ApplyAt(command.Put(key(i), []byte(key(i))), ts(uint64(i+1)))
	}
	over := make(map[string][]byte)
	for i := 0; i < n; i += 2 {
		over[key(i)] = []byte("imported-" + key(i))
	}
	s.Import(over)
	close(stop)
	<-read

	seen := make(map[*entry]int)
	for i := 0; i < n; i++ {
		e := s.keys[key(i)]
		if prev, ok := seen[e]; ok {
			t.Fatalf("key %d shares its entry with key %d", i, prev)
		}
		seen[e] = i
		want := key(i)
		if i%2 == 0 {
			want = "imported-" + key(i)
		}
		if v, ok := s.Get(key(i)); !ok || string(v) != want {
			t.Fatalf("key %d reads %q, %v, want %q", i, v, ok, want)
		}
	}
}

func TestAddSemantics(t *testing.T) {
	s := New()
	v := s.ApplyAt(command.Add("n", 5), timestamp.Zero)
	if got := int64(binary.BigEndian.Uint64(v)); got != 5 {
		t.Fatalf("add on empty = %d", got)
	}
	v = s.ApplyAt(command.Add("n", -8), timestamp.Zero)
	if got := int64(binary.BigEndian.Uint64(v)); got != -3 {
		t.Fatalf("add result = %d", got)
	}
}

// Property: a sequence of adds equals their sum.
func TestAddAccumulates(t *testing.T) {
	f := func(deltas []int32) bool {
		s := New()
		var want int64
		var got []byte
		for _, d := range deltas {
			want += int64(d)
			got = s.ApplyAt(command.Add("acc", int64(d)), timestamp.Zero)
		}
		if len(deltas) == 0 {
			return true
		}
		return int64(binary.BigEndian.Uint64(got)) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNoopAndBatchIgnored(t *testing.T) {
	s := New()
	if v := s.ApplyAt(command.Noop(), timestamp.Zero); v != nil {
		t.Fatal("noop returned a value")
	}
	if s.Len() != 0 {
		t.Fatal("noop mutated the store")
	}
}

// Property: last-writer-wins per key regardless of interleaving with other
// keys.
func TestLastWriterWins(t *testing.T) {
	f := func(writes []uint8) bool {
		s := New()
		last := map[string]byte{}
		for i, w := range writes {
			key := string(rune('a' + w%4))
			val := []byte{byte(i)}
			s.ApplyAt(command.Put(key, val), timestamp.Zero)
			last[key] = byte(i)
		}
		for k, want := range last {
			if got, ok := s.Get(k); !ok || !bytes.Equal(got, []byte{want}) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// BenchmarkApplyPut times one put: on one hot key, and cycling over as many
// keys as a 20 s lan3-mem run leaves in each replica's store, with no read
// in flight and with one — where retained-B/key (live heap the store added,
// per key) is what holding replaced versions costs.
func BenchmarkApplyPut(b *testing.B) {
	val := make([]byte, 16)
	b.Run("hot", func(b *testing.B) {
		s := New()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.ApplyAt(command.Command{Op: command.OpPut, Key: "hot", Value: val}, timestamp.Zero)
		}
	})
	keys := make([]string, 24676)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%08d", i)
	}
	for _, mode := range []string{"unread", "reader"} {
		b.Run("keys24676/"+mode, func(b *testing.B) {
			s := New()
			if mode == "reader" {
				s.BeginRead()
				defer s.EndRead()
			}
			heap := func() uint64 {
				var m runtime.MemStats
				runtime.GC()
				runtime.GC()
				runtime.ReadMemStats(&m)
				return m.HeapAlloc
			}
			before := heap()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.ApplyAt(command.Command{Op: command.OpPut, Key: keys[i%len(keys)], Value: val}, ts(uint64(i+1)))
			}
			b.StopTimer()
			b.ReportMetric(float64(int64(heap()-before))/float64(s.Len()), "retained-B/key")
		})
	}
}
