package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"github.com/caesar-consensus/caesar/internal/batch"
	"github.com/caesar-consensus/caesar/internal/kvstore"
)

// OpenInto opens (or creates) the log in dir, replays the newest snapshot
// plus the segment tail directly into the caller's store — the snapshot
// imports into it and the log tail applies onto it, so a restart carries
// no full-state copy — and returns the log positioned for appending
// together with the recovered State. A torn final record — the crash
// wrote half a frame — is truncated; corruption anywhere earlier fails
// with ErrCorrupt. The store must be empty (a freshly constructed
// node's); the KV image lives in it, State.Applied is its
// executed-command count.
func OpenInto(dir string, store *kvstore.Store, opts Options) (*Log, *State, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	l := &Log{dir: dir, opts: opts, agg: newAggregates(), store: store}

	segs, snaps, err := scanDir(dir)
	if err != nil {
		return nil, nil, err
	}

	app := batch.NewApplier(store)
	cut := uint64(0)
	haveSnap := false
	// Newest parseable snapshot wins; an unreadable newer one (torn
	// rename never happens — the write is atomic — but a partial tmp or
	// bit rot might) falls back to its predecessor, whose segments are
	// still on disk because truncation only removes what the newest
	// snapshot covers.
	for i := len(snaps) - 1; i >= 0; i-- {
		raw, err := os.ReadFile(filepath.Join(dir, snapName(snaps[i])))
		if err != nil {
			continue
		}
		if err := refuseGeneration(raw, snapMagic, "snapshot", snaps[i]); err != nil {
			return nil, nil, err
		}
		data, err := decodeSnapshot(raw)
		if err != nil {
			continue
		}
		store.Import(data.KV)
		store.SetApplied(data.Applied)
		// Restore the audit digests captured at the cut before the tail
		// replays: the tail's folds then continue the exact pre-crash
		// sequence and the restarted node re-proves its recovered state
		// against live peers.
		store.RestoreAudit(data.Audit)
		l.agg.restore(data.State)
		if opts.OnEpoch != nil {
			for _, ec := range data.Epochs {
				opts.OnEpoch(ec)
			}
		}
		cut = data.Cut
		haveSnap = true
		break
	}

	// Replay the contiguous segment run starting at the cut.
	replay := segs[:0:0]
	for _, idx := range segs {
		if idx >= cut {
			replay = append(replay, idx)
		}
	}
	// The run must start exactly at the cut (segment 0 for a log with no
	// usable snapshot): a missing prefix means a snapshot vanished or
	// rotted after its covered segments were truncated, and replaying
	// just the tail would silently resurrect the node with a hole in its
	// history.
	if len(replay) > 0 && replay[0] != cut {
		return nil, nil, fmt.Errorf("%w: log starts at segment %d but replay must start at %d (snapshot missing or unreadable)", ErrCorrupt, replay[0], cut)
	}
	records := 0
	for i, idx := range replay {
		if idx != replay[0]+uint64(i) {
			return nil, nil, fmt.Errorf("%w: segment %d missing (have %d)", ErrCorrupt, replay[0]+uint64(i), idx)
		}
		final := i == len(replay)-1
		n, err := l.replaySegment(idx, final, app)
		if err != nil {
			return nil, nil, err
		}
		records += n
	}

	// Position for appending: continue the last segment, or create the
	// first one of a fresh (or fully truncated) log. No goroutine shares l
	// yet, so the locks the roll otherwise needs are not taken.
	if len(replay) > 0 {
		last := replay[len(replay)-1]
		err = l.continueSegment(last)
	} else {
		err = l.openSegmentLocked(cut)
	}
	if err != nil {
		return nil, nil, err
	}
	l.start()

	st := l.agg.state()
	st.Applied = store.Applied()
	st.Empty = !haveSnap && records == 0
	return l, &st, nil
}

// scanDir lists segment and snapshot indices, ascending.
func scanDir(dir string) (segs, snaps []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		var idx uint64
		switch {
		case parseName(e.Name(), "wal-", ".seg", &idx):
			segs = append(segs, idx)
		case parseName(e.Name(), "snap-", ".snap", &idx):
			snaps = append(snaps, idx)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	return segs, snaps, nil
}

// refuseGeneration returns an ErrCorrupt naming both generations when raw,
// the file what idx, starts with another generation of magic — its first
// seven bytes and another eighth — and nil otherwise.
func refuseGeneration(raw []byte, magic, what string, idx uint64) error {
	if len(raw) >= len(magic) && string(raw[:7]) == magic[:7] && raw[7] != magic[7] {
		return fmt.Errorf("%w: %s %d was written by format %s, this build reads %s only", ErrCorrupt, what, idx, raw[:8], magic)
	}
	return nil
}

// replaySegment replays one segment into the aggregates and the store.
// In the final segment a torn tail is truncated off the file; anywhere
// else it is corruption.
func (l *Log) replaySegment(idx uint64, final bool, app batch.Applier) (int, error) {
	path := filepath.Join(l.dir, segName(idx))
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	if err := refuseGeneration(raw, segMagic, "segment", idx); err != nil {
		return 0, err
	}
	if len(raw) < segHeaderLen || string(raw[:8]) != segMagic ||
		binary.LittleEndian.Uint64(raw[8:16]) != idx {
		return 0, fmt.Errorf("%w: segment %d header", ErrCorrupt, idx)
	}
	off := segHeaderLen
	records := 0
	for off < len(raw) {
		rest := raw[off:]
		if len(rest) < frameHdrLen {
			break // torn frame header
		}
		n := binary.LittleEndian.Uint32(rest[:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if n > maxRecord {
			if final {
				break
			}
			return records, fmt.Errorf("%w: segment %d offset %d: oversized frame", ErrCorrupt, idx, off)
		}
		if uint64(len(rest)) < frameHdrLen+uint64(n) {
			break // torn payload
		}
		payload := rest[frameHdrLen : frameHdrLen+n]
		if crc32.Checksum(payload, crcTable) != sum {
			if final {
				break
			}
			return records, fmt.Errorf("%w: segment %d offset %d: checksum", ErrCorrupt, idx, off)
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return records, fmt.Errorf("segment %d offset %d: %w", idx, off, err)
		}
		l.applyRecord(rec, app)
		off += frameHdrLen + int(n)
		records++
	}
	if off < len(raw) {
		if !final {
			return records, fmt.Errorf("%w: segment %d: torn record before the final segment", ErrCorrupt, idx)
		}
		if err := os.Truncate(path, int64(off)); err != nil {
			return records, err
		}
	}
	return records, nil
}

// applyRecord replays one decoded record.
func (l *Log) applyRecord(rec decoded, app batch.Applier) {
	switch rec.typ {
	case recCommand:
		piece, abort := decodeXPayload(rec.cmd)
		l.agg.noteCommand(rec.group, rec.cmd, rec.ts, piece, abort)
		// Control commands (cross-shard pieces and abort markers, resize
		// fences) are logged for their delivery facts — the delivered
		// sets and the pending-transaction reconstruction — but carry no
		// store mutation themselves: pieces take effect through recTx,
		// fences through recEpoch. Replay applies at the recorded decided
		// timestamp, like the live path did: the MVCC version stamps — and
		// with them the audit digests, which fold the stamp — come out
		// identical to the pre-crash incarnation's.
		if !rec.cmd.Op.IsControl() {
			app.ApplyAt(rec.cmd, rec.ts)
		}
	case recTx:
		l.agg.noteTx(rec.xid, rec.merged)
		app.ApplyAllAt(rec.ops, rec.merged)
	case recEpoch:
		l.agg.noteEpoch(rec.epoch)
		if l.opts.OnEpoch != nil {
			l.opts.OnEpoch(rec.epoch)
		}
	case recSeq:
		l.agg.noteSeq(rec.group, rec.seq)
	case recClock:
		l.agg.noteClock(rec.group, rec.seq)
	}
}

// continueSegment opens an existing (just replayed, tail-truncated)
// segment for appending.
func (l *Log) continueSegment(idx uint64) error {
	path := filepath.Join(l.dir, segName(idx))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.segIndex = idx
	l.segBytes = info.Size()
	return nil
}
