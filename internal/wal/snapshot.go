package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"github.com/caesar-consensus/caesar/internal/audit"
	"github.com/caesar-consensus/caesar/internal/flight"
	"github.com/caesar-consensus/caesar/internal/idset"
	"github.com/caesar-consensus/caesar/internal/xshard"
)

// snapshotData is the on-disk snapshot: the store image plus every log
// aggregate, covering all segments with index < Cut. Encoded as gob
// (one-shot, so gob's self-description costs nothing per record) behind
// a small CRC'd header.
type snapshotData struct {
	// Cut is the first segment index NOT covered: replay starts there.
	Cut        uint64
	KV         map[string][]byte
	Applied    int64
	Delivered  map[int32]idset.Dump
	ExecutedTx []xshard.XID
	PendingTx  []PendingTx
	Epochs     []EpochChange
	SeqFloor   map[int32]uint64
	ClockFloor map[int32]uint64
	MaxTS      uint64
	// Audit carries the store's per-group applied-state digests captured
	// at the cut (internal/audit). Snapshots written before auditing
	// existed decode it as the zero State; gob tolerates the added field.
	Audit audit.State
}

const snapMagic = "CAESNAP1"

// writeSnapshotFile atomically writes a snapshot: temp file, fsync,
// rename, fsync dir.
func writeSnapshotFile(dir string, data snapshotData) error {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(data); err != nil {
		return err
	}
	if !gobBounded(body.Bytes()) {
		// decodeSnapshot would refuse it as corrupt: installed, it would
		// let removeCovered delete the segments it covers and leave a
		// data dir the node refuses at start.
		return errors.New("wal: snapshot does not walk as a bounded gob stream (see gobwalk.go)")
	}
	tmp, err := os.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	w := bufio.NewWriterSize(tmp, 1<<16)
	hdr := snapHeader(body.Bytes())
	werr := func() error {
		if _, err := w.Write(hdr[:]); err != nil {
			return err
		}
		if _, err := w.Write(body.Bytes()); err != nil {
			return err
		}
		return w.Flush()
	}()
	if werr != nil {
		// Renaming a short snapshot into place would let truncation
		// delete the segments it fails to replace.
		tmp.Close()
		return werr
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	final := filepath.Join(dir, snapName(data.Cut))
	if err := os.Rename(tmp.Name(), final); err != nil {
		return err
	}
	return syncDir(dir)
}

// snapHeader is the header in front of a snapshot body: the magic, the
// body's length and its CRC.
func snapHeader(body []byte) [16]byte {
	var hdr [16]byte
	copy(hdr[:8], snapMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[12:16], crc32.Checksum(body, crcTable))
	return hdr
}

// readSnapshotFile loads and verifies one snapshot file.
func readSnapshotFile(path string) (snapshotData, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return snapshotData{}, err
	}
	return decodeSnapshot(raw)
}

// decodeSnapshot verifies a snapshot file's header and decodes its body.
// Whatever the bytes, it returns the snapshot or an error wrapping
// ErrCorrupt, and it allocates in proportion to len(raw) (see gobwalk.go).
func decodeSnapshot(raw []byte) (snapshotData, error) {
	var data snapshotData
	if len(raw) < 16 || string(raw[:8]) != snapMagic {
		return data, fmt.Errorf("%w: snapshot header", ErrCorrupt)
	}
	n := binary.LittleEndian.Uint32(raw[8:12])
	sum := binary.LittleEndian.Uint32(raw[12:16])
	if uint64(len(raw)-16) != uint64(n) {
		return data, fmt.Errorf("%w: snapshot length", ErrCorrupt)
	}
	body := raw[16:]
	if crc32.Checksum(body, crcTable) != sum {
		return data, fmt.Errorf("%w: snapshot checksum", ErrCorrupt)
	}
	if !gobBounded(body) {
		return data, fmt.Errorf("%w: snapshot body is not a bounded gob stream", ErrCorrupt)
	}
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&data); err != nil {
		return data, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return data, nil
}

// Snapshot takes a snapshot now. What fixes the cut happens in two short
// steps. At enqueue, under the log's locks: roll to a fresh segment, so
// the cut falls on a segment boundary, copy the aggregates, and queue a
// cut entry behind every record appended so far. When every lane has
// reached the cut — everything before it applied, nothing after it yet,
// all of them waiting — export the store. The slow part — encoding and
// fsyncing the snapshot file, then deleting covered segments — runs after
// that, while appends and completions continue: they land in segments >=
// cut and stay outside the snapshot by construction, and a crash
// mid-write just leaves the previous snapshot + all segments in place.
// Concurrent Snapshot calls are serialized. Snapshot waits for the lanes,
// so no completion may call it.
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
		data = l.agg.toSnapshotData(l.segIndex)
		l.cut = newMeet(l.lanesLocked(nil))
		l.enqueueLocked(pendingRec{meet: l.cut, fn: func(err error) {
			if err == nil {
				data.KV, data.Applied = export()
				// No apply can run between the export above and this
				// capture — every lane is stopped at the cut — so the
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
	l.mu.Lock()
	l.cut = nil
	l.mu.Unlock()
	if err != nil {
		return err
	}
	if err := writeSnapshotFile(l.dir, data); err != nil {
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
