package wal

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"

	"github.com/caesar-consensus/caesar/internal/audit"
	"github.com/caesar-consensus/caesar/internal/codec"
	"github.com/caesar-consensus/caesar/internal/flight"
	"github.com/caesar-consensus/caesar/internal/idset"
)

// snapshotData is the on-disk snapshot, covering all segments with index
// < Cut.
type snapshotData struct {
	// Cut is the first segment index NOT covered: replay starts there.
	Cut uint64
	// KV is the store image: what the log prefix before the cut applied.
	KV map[string][]byte
	// Audit is the store's per-group applied-state digests captured with
	// KV (internal/audit).
	Audit audit.State
	// State is the log's aggregates at the cut, with the store's Applied
	// count; Empty is never set.
	State
}

// A snapshot file is a header — the magic, the body's length and its
// CRC-32C — and a body of internal/codec fields (the "snapshot" row of that
// package's table). The magic's last byte is the format generation
// (generation 1 was a gob stream, generation 2 listed every executed
// transaction and wrote a delivered set as a watermark and the sequences
// above it); a snapshot of another generation is refused at open, not
// migrated.
const (
	snapMagic     = "CAESNAP3"
	snapHeaderLen = 16
)

// writeSnapshotFile atomically writes a snapshot: temp file, fsync,
// rename, fsync dir.
func writeSnapshotFile(dir string, data *snapshotData) error {
	tmp, err := os.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	size := 4096 // the store image is most of a snapshot: size the buffer by it
	for k, v := range data.KV {
		size += len(k) + len(v) + 4
	}
	_, err = tmp.Write(sealSnapshot(appendSnapshotBody(make([]byte, snapHeaderLen, size), data)))
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		// Renaming a short snapshot into place would let truncation
		// delete the segments it fails to replace.
		return err
	}
	final := filepath.Join(dir, snapName(data.Cut))
	if err := os.Rename(tmp.Name(), final); err != nil {
		return err
	}
	return syncDir(dir)
}

// sealSnapshot fills in the header reserved at the front of file from the
// body behind it.
func sealSnapshot(file []byte) []byte {
	body := file[snapHeaderLen:]
	copy(file, snapMagic)
	binary.LittleEndian.PutUint32(file[8:12], uint32(len(body)))
	binary.LittleEndian.PutUint32(file[12:16], crc32.Checksum(body, crcTable))
	return file
}

// appendSnapshotBody appends d's body. Maps go in ascending key order, so
// equal snapshots are equal bytes.
func appendSnapshotBody(b []byte, d *snapshotData) []byte {
	b = codec.AppendUvarint(b, d.Cut)
	b = codec.AppendUvarint(b, uint64(d.Applied))
	b = codec.AppendUvarint(b, d.MaxTS)
	b = appendMap(b, d.KV, func(b []byte, k string, v []byte) []byte {
		return codec.AppendBytes(codec.AppendString(b, k), v)
	})
	b = appendMap(b, d.Delivered, func(b []byte, g int32, set *idset.Set) []byte {
		return set.AppendTo(appendInt32(b, g))
	})
	b = d.Settled.AppendTo(b)
	b = appendList(b, d.PendingTx, func(b []byte, p PendingTx) []byte {
		b = appendList(appendXID(b, p.XID), p.Groups, appendInt32)
		b = codec.AppendUvarint(codec.AppendCommands(b, p.Ops), uint64(p.Epoch))
		return codec.AppendTimestamp(appendList(b, p.Got, appendInt32), p.Merged)
	})
	b = appendList(b, d.Epochs, appendEpoch)
	b = appendMap(b, d.SeqFloor, appendFloor)
	b = appendMap(b, d.ClockFloor, appendFloor)
	b = appendList(b, d.Audit.Groups, func(b []byte, gs audit.GroupState) []byte {
		b = codec.AppendUvarint(appendInt32(b, gs.Group), uint64(gs.Epoch))
		b = codec.AppendUvarint(b, gs.Frontier)
		b = codec.AppendUvarint(b, uint64(gs.Digest))
		return codec.AppendUvarint(b, uint64(gs.IDFold))
	})
	return appendList(b, d.Audit.Stamps, func(b []byte, st audit.Stamp) []byte {
		b = codec.AppendUvarint(codec.AppendString(b, st.Kind), st.Seq)
		b = codec.AppendUvarint(appendInt32(b, st.Group), uint64(st.Epoch))
		b = codec.AppendUvarint(b, st.Frontier)
		return codec.AppendUvarint(b, uint64(st.Digest))
	})
}

// decodeSnapshot verifies a snapshot file's header and decodes its body.
// Whatever the bytes, it returns the snapshot or an error wrapping
// ErrCorrupt, and it allocates in proportion to len(raw): every count is
// checked against the bytes left before anything is sized by it.
func decodeSnapshot(raw []byte) (snapshotData, error) {
	var d snapshotData
	if len(raw) < snapHeaderLen || string(raw[:8]) != snapMagic {
		return d, fmt.Errorf("%w: snapshot header", ErrCorrupt)
	}
	body := raw[snapHeaderLen:]
	if uint64(len(body)) != uint64(binary.LittleEndian.Uint32(raw[8:12])) {
		return d, fmt.Errorf("%w: snapshot length", ErrCorrupt)
	}
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(raw[12:16]) {
		return d, fmt.Errorf("%w: snapshot checksum", ErrCorrupt)
	}
	r := codec.NewReader(body)
	d.Cut = r.Uvarint()
	d.Applied = int64(r.Uvarint())
	d.MaxTS = r.Uvarint()
	d.KV = readMap(&r, 2, func(r *codec.Reader) (string, []byte) { return r.String(), r.Bytes() })
	d.Delivered = readMap(&r, 2, func(r *codec.Reader) (int32, *idset.Set) { return readInt32(r), idset.Read(r) })
	// Like an empty list or map, an empty set decodes to nil.
	if settled := idset.Read(&r); settled.Len() > 0 {
		d.Settled = settled
	}
	// A pending transaction's XID and Merged take two bytes each, its four
	// other fields one.
	d.PendingTx = readList(&r, 8, func(r *codec.Reader) PendingTx {
		var p PendingTx
		p.XID = readXID(r)
		p.Groups = readList(r, 1, readInt32)
		p.Ops = r.Commands()
		p.Epoch = r.Uint32()
		p.Got = readList(r, 1, readInt32)
		p.Merged = r.Timestamp()
		return p
	})
	d.Epochs = readList(&r, 3, readEpoch)
	d.SeqFloor = readMap(&r, 2, readFloor)
	d.ClockFloor = readMap(&r, 2, readFloor)
	d.Audit.Groups = readList(&r, 5, func(r *codec.Reader) audit.GroupState {
		var gs audit.GroupState
		gs.Group = readInt32(r)
		gs.Epoch = r.Uint32()
		gs.Frontier = r.Uvarint()
		gs.Digest = audit.Digest(r.Uvarint())
		gs.IDFold = audit.Digest(r.Uvarint())
		return gs
	})
	d.Audit.Stamps = readList(&r, 6, func(r *codec.Reader) audit.Stamp {
		var st audit.Stamp
		st.Kind = r.String()
		st.Seq = r.Uvarint()
		st.Group = readInt32(r)
		st.Epoch = r.Uint32()
		st.Frontier = r.Uvarint()
		st.Digest = audit.Digest(r.Uvarint())
		return st
	})
	if err := r.End(); err != nil {
		return snapshotData{}, fmt.Errorf("%w: snapshot body", ErrCorrupt)
	}
	return d, nil
}

func appendFloor(b []byte, g int32, upto uint64) []byte {
	return codec.AppendUvarint(appendInt32(b, g), upto)
}

func readFloor(r *codec.Reader) (int32, uint64) { return readInt32(r), r.Uvarint() }

// appendList appends a counted list.
func appendList[T any](b []byte, xs []T, put func([]byte, T) []byte) []byte {
	b = codec.AppendUvarint(b, uint64(len(xs)))
	for _, x := range xs {
		b = put(b, x)
	}
	return b
}

// readList reads a counted list whose elements take at least minSize
// bytes each; an empty one decodes to nil.
func readList[T any](r *codec.Reader, minSize int, read func(*codec.Reader) T) []T {
	n := r.Count(minSize)
	if n == 0 {
		return nil
	}
	xs := make([]T, n)
	for i := range xs {
		xs[i] = read(r)
	}
	return xs
}

// appendMap appends a counted map in ascending key order.
func appendMap[K cmp.Ordered, V any](b []byte, m map[K]V, put func([]byte, K, V) []byte) []byte {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = codec.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = put(b, k, m[k])
	}
	return b
}

// readMap reads a map appendMap wrote, like readList; an empty one decodes
// to nil.
func readMap[K comparable, V any](r *codec.Reader, minSize int, read func(*codec.Reader) (K, V)) map[K]V {
	n := r.Count(minSize)
	if n == 0 {
		return nil
	}
	m := make(map[K]V, n)
	for i := 0; i < n; i++ {
		k, v := read(r)
		m[k] = v
	}
	return m
}

// Snapshot takes a snapshot now. What fixes the cut happens in two short
// steps. At enqueue, under the log's locks: roll to a fresh segment, so
// the cut falls on a segment boundary, copy the aggregates, and queue a
// cut entry behind every record appended so far. When the completer
// reaches the cut — everything before it applied, nothing after it yet —
// export the store. The slow part — encoding and fsyncing the snapshot
// file, then deleting covered segments — runs after that, while appends
// and completions continue: they land in segments >= cut and stay outside
// the snapshot by construction, and a crash mid-write just leaves the
// previous snapshot + all segments in place. Concurrent Snapshot calls
// are serialized. Snapshot waits for the completer, so no completion may
// call it.
func (l *Log) Snapshot(export func() (map[string][]byte, int64)) error {
	l.snapSerial.Lock()
	defer l.snapSerial.Unlock()

	var data snapshotData
	err := l.await(func(fn func(error)) error {
		l.ioMu.Lock()
		defer l.ioMu.Unlock()
		l.mu.Lock()
		defer l.mu.Unlock()
		if err := l.refusedLocked(); err != nil {
			return err
		}
		if err := l.openSegmentLocked(l.segIndex + 1); err != nil {
			l.failLocked(err)
			return err
		}
		data = snapshotData{Cut: l.segIndex, State: l.agg.state()}
		l.enqueueLocked(pendingRec{fn: func(err error) {
			if err == nil {
				data.KV, data.Applied = export()
				// No apply can run between the export above and this
				// capture — the completer is running the cut — so the
				// audit digests correspond exactly to the KV cut persisted
				// next to them. AuditSnapshot also stamps every group
				// with a "snapshot" cut point.
				if l.store != nil {
					data.Audit = l.store.AuditSnapshot()
				}
			}
			fn(err)
		}})
		return nil
	})
	if err != nil {
		return err
	}
	if err := writeSnapshotFile(l.dir, &data); err != nil {
		return err
	}
	l.mu.Lock()
	l.sinceSnap = 0
	l.mu.Unlock()
	if m := l.opts.Metrics; m != nil {
		m.Snapshots.Inc()
	}
	l.opts.Flight.Eventf(flight.KindSnapshot,
		"snapshot cut at %d applied command(s); segments through %d truncated", data.Applied, data.Cut)
	l.removeCovered(data.Cut)
	return nil
}

// MaybeSnapshot snapshots when the log grew past Options.SnapshotBytes
// since the last one; the cheap no-op path makes it safe to call on a
// timer.
func (l *Log) MaybeSnapshot(export func() (map[string][]byte, int64)) error {
	if l.SizeSinceSnapshot() < l.opts.SnapshotBytes {
		return nil
	}
	return l.Snapshot(export)
}

// removeCovered deletes segments below the cut and snapshots below the
// newest. Best-effort: a leftover file is re-collected by the next
// snapshot (and ignored by OpenInto).
func (l *Log) removeCovered(cut uint64) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return
	}
	removed := false
	for _, e := range entries {
		var idx uint64
		switch {
		case parseName(e.Name(), "wal-", ".seg", &idx) && idx < cut:
		case parseName(e.Name(), "snap-", ".snap", &idx) && idx < cut:
		default:
			continue
		}
		if os.Remove(filepath.Join(l.dir, e.Name())) == nil {
			removed = true
		}
	}
	if removed {
		_ = syncDir(l.dir)
	}
}

// parseName extracts the index of a "<prefix><16 digits><suffix>" file.
func parseName(name, prefix, suffix string, out *uint64) bool {
	if len(name) != len(prefix)+16+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return false
	}
	var v uint64
	for _, c := range name[len(prefix) : len(prefix)+16] {
		if c < '0' || c > '9' {
			return false
		}
		v = v*10 + uint64(c-'0')
	}
	*out = v
	return true
}
