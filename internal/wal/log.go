package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/caesar-consensus/caesar/internal/command"
	"github.com/caesar-consensus/caesar/internal/flight"
	"github.com/caesar-consensus/caesar/internal/kvstore"
	"github.com/caesar-consensus/caesar/internal/protocol"
	"github.com/caesar-consensus/caesar/internal/timestamp"
	"github.com/caesar-consensus/caesar/internal/trace"
	"github.com/caesar-consensus/caesar/internal/xshard"
)

// segment file layout: a 16-byte header (magic + index) followed by
// frames of [u32 payload length][u32 CRC-32C][payload]. The magic's last
// byte is the format generation, which covers the payloads inside command
// records too (internal/codec's tables; generation 1 held them as gob). A
// segment of another generation is refused at open, not migrated.
const (
	segMagic     = "CAESWAL2"
	segHeaderLen = 16
	frameHdrLen  = 8
	// maxRecord bounds a frame so a corrupt length field cannot make the
	// reader allocate gigabytes.
	maxRecord = 64 << 20
	// maxSpare bounds the batch buffer the log keeps between passes: one
	// oversized record must not pin its megabytes for the node's life.
	maxSpare = 1 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned for appends on a closed log.
var ErrClosed = errors.New("wal: log closed")

func segName(index uint64) string  { return fmt.Sprintf("wal-%016d.seg", index) }
func snapName(index uint64) string { return fmt.Sprintf("snap-%016d.snap", index) }

// pendingRec is one entry of the completion queue: a record appended to
// the batch buffer, waiting for the sync that covers it. Once durable it
// completes on the completer, in append order — or, onSync, on the syncer
// itself, as soon as it is synced, and the completer passes it by; onSync
// is for entries that apply nothing (an epoch, a reservation's waiter):
// the syncer never applies and never blocks.
type pendingRec struct {
	onSync bool
	// A delivered command on its chain: once durable, inner applies cmd
	// at ts and done reports the result.
	cmd   command.Command
	ts    timestamp.Timestamp
	inner protocol.TimestampedApplier
	done  protocol.Completion
	// Every other entry (inner is nil) — LogCommand's command, an
	// executed transaction, an epoch, a reservation, a snapshot cut —
	// completes through fn instead.
	fn func(err error)
	// err, set when the syncer hands the entry on, is the failure that
	// kept its record from becoming durable.
	err error
}

// Log is one node's write-ahead log handle. All methods are safe for
// concurrent use. An append encodes its frame into the batch buffer,
// joins the completion queue and returns; the syncer goroutine writes and
// fsyncs the buffer and hands the covered entries to the completer
// goroutine, which completes them one after another in append order:
// trace KindFsync, apply, acknowledge. Completion order is thus log
// order, which is replay order, for every group at once: a transaction or
// a snapshot cut completes after everything appended before it and before
// anything after it, so a snapshot observes a store that matches its log
// cut exactly. Who may wait for what: an event loop may wait for a sync
// (a reservation), never for a completion; a completion waits for nothing
// in the log — only for the store's lock, or for room in an inbox it
// acknowledges into; the syncer waits for the disk alone.
type Log struct {
	dir  string
	opts Options
	// store is the application store the log replays into and snapshots
	// from; Snapshot captures the store's audit digests next to the KV
	// cut through it. Set once by OpenInto, before any concurrency.
	store *kvstore.Store

	// snapSerial serializes whole Snapshot invocations (the file write
	// runs under it, outside the other two). It is the log's outermost
	// lock; the chain lives on the first-acquired lock.
	//caesarlint:lockorder wal-snap-serial < wal-io < wal-file
	snapSerial sync.Mutex

	// ioMu owns the active segment's descriptor: the syncer holds it
	// from the moment a pass takes its batch until the batch is written
	// and synced, Snapshot while it rolls to the cut's segment — so a
	// batch never lands in a segment other than the one that was active
	// when its records were appended.
	//caesarlint:lockorder wal-io
	ioMu sync.Mutex

	//caesarlint:lockorder wal-file
	mu        sync.Mutex // buffer, queues, file position and aggregates
	f         *os.File
	segIndex  uint64
	segBytes  int64
	sinceSnap int64
	agg       *aggregates
	// buf holds the frames appended since the last pass took its batch;
	// pending their entries, frames counts the entries that own a frame
	// (a snapshot cut does not). The syncer swaps all three out and hands
	// the backing arrays back after the pass, so steady-state appends
	// allocate nothing.
	buf          []byte
	pending      []pendingRec
	frames       int
	spareBuf     []byte
	sparePending []pendingRec
	// pendingSince is when pending's oldest entry joined; inFlight and
	// inFlightSince describe the batch the syncer is writing.
	pendingSince  time.Time
	inFlight      int
	inFlightSince time.Time
	// synced holds the entries the syncer handed on and the completer has
	// not taken yet, spareSynced the backing array of the batch it took
	// before; completing counts the entries of the batch it is running.
	// syncedSince and completingSince say when the oldest entry of each
	// joined the log, to the resolution of the sync that carried it.
	synced          []pendingRec
	spareSynced     []pendingRec
	syncedSince     time.Time
	completing      int
	completingSince time.Time
	werr            error // sticky write/sync failure
	closed          bool

	kick          chan struct{}
	stop          chan struct{}
	syncerDone    chan struct{}
	wake          chan struct{}
	completerDone chan struct{}
	// syncHook, when set (tests, before the first append), replaces the
	// batch fsync.
	syncHook func(*os.File) error
}

// start launches the log's two goroutines, the syncer and the completer.
func (l *Log) start() {
	l.kick = make(chan struct{}, 1)
	l.stop = make(chan struct{})
	l.syncerDone = make(chan struct{})
	l.wake = make(chan struct{}, 1)
	l.completerDone = make(chan struct{})
	go l.syncer()
	go l.completer()
}

// syncer is the group-commit loop: each pass writes and fsyncs whatever
// was appended since the previous pass took its batch — the longer a
// sync takes, the bigger the next batch, which is the self-tuning at the
// heart of group commit — and hands the batch to the completer.
func (l *Log) syncer() {
	defer close(l.syncerDone)
	for {
		select {
		case <-l.stop:
			l.syncBatch()
			return
		case <-l.kick:
			l.syncBatch()
		}
	}
}

// syncBatch makes one write+fsync pass and hands its entries on.
func (l *Log) syncBatch() {
	l.ioMu.Lock()
	l.mu.Lock()
	batch, buf, frames := l.pending, l.buf, l.frames
	if len(batch) == 0 {
		l.mu.Unlock()
		l.ioMu.Unlock()
		return
	}
	l.pending, l.sparePending = l.sparePending, nil
	l.buf, l.spareBuf = l.spareBuf, nil
	l.frames = 0
	l.inFlight, l.inFlightSince = len(batch), l.pendingSince
	err, f := l.werr, l.f
	l.mu.Unlock()

	// A batch of nothing but a snapshot cut has no record to sync; a batch
	// whose bytes a segment roll already flushed still syncs (the roll is
	// rare, the extra fsync harmless).
	if err == nil && frames > 0 {
		if len(buf) > 0 {
			_, err = f.Write(buf)
		}
		if err == nil {
			err = l.syncFile(f, frames)
		}
	}
	for i := range batch {
		e := &batch[i]
		e.err = err
		if e.onSync {
			e.fn(err)
		}
	}
	// Hand the batch on in one piece before the roll below, which is not
	// on any record's way to its acknowledgement: the array itself when the
	// completer has taken everything before it, else a copy behind the rest.
	l.mu.Lock()
	if len(l.synced) == 0 {
		l.synced, batch = batch, l.synced
		l.syncedSince = l.inFlightSince
	} else {
		l.synced = append(l.synced, batch...)
	}
	l.inFlight = 0
	l.mu.Unlock()
	select {
	case l.wake <- struct{}{}:
	default:
	}

	clear(batch) // drop what a copied batch's entries pinned
	l.mu.Lock()
	if err != nil {
		l.failLocked(err)
	} else if !l.closed && l.segBytes >= l.opts.SegmentSize {
		if rerr := l.openSegmentLocked(l.segIndex + 1); rerr != nil {
			l.failLocked(rerr)
		}
	}
	l.sparePending = batch[:0]
	if cap(buf) <= maxSpare {
		l.spareBuf = buf[:0]
	}
	l.mu.Unlock()
	l.ioMu.Unlock()
}

// completer completes what the syncer hands on, batch by batch in append
// order, until Close closes wake. A wake-up that finds nothing (its batch
// was taken with an earlier one) completes nothing.
func (l *Log) completer() {
	defer close(l.completerDone)
	for range l.wake {
		l.mu.Lock()
		batch := l.synced
		l.synced, l.spareSynced = l.spareSynced, nil
		l.completing, l.completingSince = len(batch), l.syncedSince
		l.mu.Unlock()

		for i := range batch {
			l.complete(&batch[i])
		}

		clear(batch) // drop the commands and callbacks the entries pinned
		l.mu.Lock()
		l.spareSynced, l.completing = batch[:0], 0
		l.mu.Unlock()
	}
}

// complete finishes one entry on the completer. A command whose record is
// durable is traced, applied and acknowledged, in that order; one whose
// record is not (e.err) is reported and never applied — it is treated
// exactly like a command delivered an instant after a crash.
func (l *Log) complete(e *pendingRec) {
	switch {
	case e.onSync: // completed by the syncer
	case e.inner == nil:
		e.fn(e.err)
	case e.err != nil:
		e.done.Complete(protocol.Result{Err: e.err})
	default:
		l.opts.Trace.Record(l.opts.Self, trace.KindFsync, e.cmd.ID, e.ts)
		e.done.Complete(protocol.Result{Value: e.inner.ApplyAt(e.cmd, e.ts)})
	}
}

// syncFile fsyncs f for a batch of the given record count and feeds the
// fsync metrics.
func (l *Log) syncFile(f *os.File, records int) error {
	m := l.opts.Metrics
	fsync := l.syncHook
	if fsync == nil {
		fsync = (*os.File).Sync
	}
	start := l.opts.Now()
	if err := fsync(f); err != nil {
		return err
	}
	if m != nil {
		m.FsyncLatency.Add(l.opts.Now().Sub(start))
		m.Fsyncs.Inc()
		m.FsyncedRecords.Add(int64(records))
	}
	return nil
}

// failLocked records the log's first write or sync failure: it is sticky,
// every later append is refused with it, and it is journaled once so an
// operator reading the flight recorder sees why the node stopped
// acknowledging. Callers hold l.mu.
func (l *Log) failLocked(err error) {
	if l.werr != nil {
		return
	}
	l.werr = err
	l.opts.Flight.Eventf(flight.KindNode, "write-ahead log failed, every later append is refused: %v", err)
}

// refusedLocked reports why the log takes no more appends, or nil.
// Callers hold l.mu.
func (l *Log) refusedLocked() error {
	if l.closed {
		return ErrClosed
	}
	return l.werr
}

// openSegmentLocked makes the next segment the active one: what the
// batch buffer still holds belongs to the old segment and is written and
// synced there first (its entries stay queued and complete on the next
// pass). Callers hold l.ioMu and l.mu.
func (l *Log) openSegmentLocked(index uint64) error {
	if l.f != nil {
		if len(l.buf) > 0 {
			if _, err := l.f.Write(l.buf); err != nil {
				return err
			}
			l.buf = l.buf[:0]
		}
		if err := l.f.Sync(); err != nil {
			return err
		}
		if err := l.f.Close(); err != nil {
			return err
		}
		l.f = nil
	}
	path := filepath.Join(l.dir, segName(index))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	var hdr [segHeaderLen]byte
	copy(hdr[:8], segMagic)
	binary.LittleEndian.PutUint64(hdr[8:], index)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.segIndex = index
	l.segBytes = segHeaderLen
	return nil
}

// syncDir fsyncs a directory so freshly created (or removed) files
// survive a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// frameHdrSpace reserves a frame header in the batch buffer.
var frameHdrSpace [frameHdrLen]byte

// beginFrameLocked starts a frame at the end of the batch buffer unless
// the log takes no more appends: the caller encodes its payload onto
// l.buf and seals the frame. Callers hold l.mu.
func (l *Log) beginFrameLocked() (start int, err error) {
	if err := l.refusedLocked(); err != nil {
		return 0, err
	}
	start = len(l.buf)
	l.buf = append(l.buf, frameHdrSpace[:]...)
	return start, nil
}

// sealFrameLocked turns the payload encoded since beginFrameLocked
// returned start into a frame — length and checksum go into the reserved
// header — queues e behind it and wakes the syncer. An oversized payload
// is dropped from the buffer and refused. Callers hold l.mu.
func (l *Log) sealFrameLocked(start int, e pendingRec) error {
	payload := l.buf[start+frameHdrLen:]
	if len(payload) > maxRecord {
		l.buf = l.buf[:start]
		return fmt.Errorf("wal: record of %d bytes exceeds the %d byte bound", len(payload), maxRecord)
	}
	binary.LittleEndian.PutUint32(l.buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(l.buf[start+4:], crc32.Checksum(payload, crcTable))
	n := int64(frameHdrLen + len(payload))
	l.segBytes += n
	l.sinceSnap += n
	l.frames++
	l.enqueueLocked(e)
	return nil
}

// enqueueLocked appends e to the completion queue and wakes the syncer (a
// wake-up already pending covers e too). Callers hold l.mu.
func (l *Log) enqueueLocked(e pendingRec) {
	if len(l.pending) == 0 {
		l.pendingSince = l.opts.Now()
	}
	l.pending = append(l.pending, e)
	select {
	case l.kick <- struct{}{}:
	default:
	}
}

// appendCommand appends the record of e.cmd, delivered by group at e.ts,
// and queues e as its completion, returning without waiting for the
// sync. A refused append (closed log, sticky failure, oversized record)
// returns the reason and queues nothing.
func (l *Log) appendCommand(group int32, e pendingRec) error {
	// Decoded here, not in noteCommand: cheap as a piece's decode is
	// (~0.5 µs, a handful of allocations), it need not run under the lock
	// every group's append takes.
	piece, abort := decodeXPayload(e.cmd)
	l.mu.Lock()
	defer l.mu.Unlock()
	start, err := l.beginFrameLocked()
	if err != nil {
		return err
	}
	l.buf = appendCommandRec(l.buf, group, e.cmd, e.ts)
	if err := l.sealFrameLocked(start, e); err != nil {
		return err
	}
	l.agg.noteCommand(group, e.cmd, e.ts, piece, abort)
	return nil
}

// appendRecord appends a record that applies nothing — an epoch, a
// reservation: payload is its encoded form, note folds it into the
// aggregates, fn completes it on the syncer, which it must not block.
func (l *Log) appendRecord(payload []byte, note func(*aggregates), fn func(error)) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	start, err := l.beginFrameLocked()
	if err != nil {
		return err
	}
	l.buf = append(l.buf, payload...)
	if err := l.sealFrameLocked(start, pendingRec{onSync: true, fn: fn}); err != nil {
		return err
	}
	note(l.agg)
	return nil
}

// await runs one append and parks the caller until its entry completed —
// the enqueue-and-wait form. An entry that completes on the completer
// (LogCommand, Snapshot) may be awaited by neither an event loop nor a
// completion: either would stall every record behind it, the second
// forever. A reservation completes on the syncer, as soon as its record
// is synced, so an event loop may await it.
func (l *Log) await(enqueue func(fn func(error)) error) error {
	var (
		wg  sync.WaitGroup
		res error
	)
	wg.Add(1)
	if err := enqueue(func(err error) { res = err; wg.Done() }); err != nil {
		return err
	}
	wg.Wait()
	return res
}

// LogCommand makes one group's applied command durable, then runs apply
// — on the completer, at the command's position in the log — and returns
// its value: enqueue-and-wait over the same queue ApplyDeferred feeds
// (see await for who may call it). The record precedes the application
// (and the acknowledgement that follows it) — the "write-ahead" in the
// name. A failed append skips apply and returns
// the error.
func (l *Log) LogCommand(group int32, cmd command.Command, ts timestamp.Timestamp, apply func() []byte) ([]byte, error) {
	var v []byte
	err := l.await(func(fn func(error)) error {
		return l.appendCommand(group, pendingRec{cmd: cmd, ts: ts, fn: func(err error) {
			if err == nil {
				v = apply()
			}
			fn(err)
		}})
	})
	return v, err
}

// LogTx appends an executed cross-shard transaction and returns; once the
// record is durable and everything appended before it has completed,
// apply runs (the atomic application of its ops) and then done(nil). A
// record that is refused or never becomes durable gets done(err) alone.
// The commit table calls LogTx from inside a piece's completion — which is
// why it must not wait.
func (l *Log) LogTx(xid xshard.XID, merged timestamp.Timestamp, ops []command.Command, apply func(), done func(error)) {
	payload := encodeTxRec(xid, merged, ops)
	l.mu.Lock()
	start, err := l.beginFrameLocked()
	if err == nil {
		l.buf = append(l.buf, payload...)
		err = l.sealFrameLocked(start, pendingRec{fn: func(err error) {
			if err == nil {
				apply()
			}
			done(err)
		}})
	}
	if err == nil {
		l.agg.noteTx(xid, merged)
	}
	l.mu.Unlock()
	if err != nil {
		done(err)
	}
}

// LogEpoch appends an installed routing epoch without waiting for its
// sync: every record of a delivery that observed the epoch is appended
// after it, so none of them completes before the epoch is durable.
func (l *Log) LogEpoch(ec EpochChange) error {
	return l.appendRecord(encodeEpochRec(ec), func(a *aggregates) {
		a.noteEpoch(ec)
	}, func(error) {})
}

// ReserveSeq makes a proposer's sequence reservation durable: after a
// restart the group's proposer starts above the highest reservation, so
// command IDs are never reused across the crash. It returns when the
// record is synced, whatever the completer is doing.
func (l *Log) ReserveSeq(group int32, upto uint64) error {
	return l.await(func(fn func(error)) error {
		return l.appendRecord(encodeFloorRec(recSeq, group, upto), func(a *aggregates) {
			a.noteSeq(group, upto)
		}, fn)
	})
}

// LogClock makes a group's logical-clock issue reservation durable; see
// timestamp.Clock.SetReserve.
func (l *Log) LogClock(group int32, upto uint64) error {
	return l.await(func(fn func(error)) error {
		return l.appendRecord(encodeFloorRec(recClock, group, upto), func(a *aggregates) {
			a.noteClock(group, upto)
		}, fn)
	})
}

// txSeqGroup is the pseudo-group sequence reservations of the
// cross-shard commit table are filed under: the table mints one XID
// stream per node, not per group.
const txSeqGroup int32 = -1

// ReserveXID makes the commit table's transaction-sequence reservation
// durable; wire it as xshard.TableConfig.ReserveXID.
func (l *Log) ReserveXID(upto uint64) {
	_ = l.ReserveSeq(txSeqGroup, upto)
}

// SizeSinceSnapshot returns the bytes appended since the last snapshot
// (or open), the growth MaybeSnapshot thresholds on.
func (l *Log) SizeSinceSnapshot() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinceSnap
}

// Stats is a point-in-time view of the log's file and queue state, for
// the observability gauges.
type Stats struct {
	// SegmentIndex is the active segment's index; SegmentBytes its size.
	SegmentIndex uint64
	SegmentBytes int64
	// SinceSnapshot is the log growth since the last snapshot cut.
	SinceSnapshot int64
	// Pending counts the entries appended and not yet passed by the
	// completer, and OldestPending is how long the oldest of them has
	// waited, to the resolution of the sync that carried it: a stalled
	// disk — or a stalled state machine — shows as both growing while the
	// event loops keep deciding.
	Pending       int
	OldestPending time.Duration
}

// Stats snapshots the log's gauges.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.opts.Now()
	st := Stats{
		SegmentIndex:  l.segIndex,
		SegmentBytes:  l.segBytes,
		SinceSnapshot: l.sinceSnap,
		Pending:       l.completing + len(l.synced) + l.inFlight + len(l.pending),
	}
	// Entries complete in log order: the oldest is in the first stage,
	// from the completer back to the batch buffer, that holds any.
	switch {
	case l.completing > 0:
		st.OldestPending = now.Sub(l.completingSince)
	case len(l.synced) > 0:
		st.OldestPending = now.Sub(l.syncedSince)
	case l.inFlight > 0:
		st.OldestPending = now.Sub(l.inFlightSince)
	case len(l.pending) > 0:
		st.OldestPending = now.Sub(l.pendingSince)
	}
	return st
}

// Close refuses further appends, lets the syncer's final pass write, sync
// and hand on everything appended before, and the completer complete it —
// every queued command is applied and acknowledged, once, before Close
// returns — and closes the active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()

	close(l.stop)
	<-l.syncerDone
	close(l.wake) // the syncer, its one sender, has returned
	<-l.completerDone

	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.werr
	if l.f != nil {
		if cerr := l.f.Close(); err == nil {
			err = cerr
		}
		l.f = nil
	}
	return err
}
