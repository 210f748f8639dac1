package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// ErrCrashed is returned by mutating Log methods after the owning Store's
// Crash hook fired (crash simulation in tests and the harness).
var ErrCrashed = errors.New("durable: store crashed")

// ckptType is the reserved frame type of a checkpoint file's single
// record; component record types must stay below it.
const ckptType byte = 0xFF

// Log is one named write-ahead log plus its checkpoint file, owned by a
// Store.  Appends go to the active segment under the store's fsync
// policy; Checkpoint atomically replaces the snapshot and truncates the
// segments.  A Log is fail-stop: it keeps the first error an Append,
// Sync or Checkpoint hits, returns it from every later call without
// touching a file, and hands it to Store.Close, so what reached the disk
// before the failure is exactly what the next Open recovers.  Log is
// safe for concurrent use.
type Log struct {
	name    string
	dir     string
	opts    Options
	met     logMetrics
	crashed *atomic.Bool // shared with the owning Store

	mu        sync.Mutex
	f         *os.File // active segment
	seg       int      // active segment index
	segSize   int64
	totalSize int64 // across live segments
	nsegs     int
	lastSync  time.Time
	closed    bool
	err       error  // first write failure, kept
	frame     []byte // Append's frame buffer, reused
}

// Recovery is what a Log found on open: the last checkpoint snapshot (nil
// when none was ever taken), the valid records appended after it in
// order, any damage that cut the scan short, and whether the store was
// last closed cleanly (in which case the records are a flushed tail, not
// evidence of a crash).
type Recovery struct {
	Snapshot []byte
	Records  []Record
	Damage   []Damage
	Clean    bool
}

// readCheckpoint parses a checkpoint file: one frame of ckptType whose
// data is [8-byte first post-checkpoint segment index][snapshot].
func readCheckpoint(log, path string) (snapshot []byte, minSeg int, dmg *Damage, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil, nil
		}
		return nil, 0, nil, err
	}
	bad := func(detail string) *Damage {
		return &Damage{Log: log, Segment: filepath.Base(path), Kind: "checkpoint", Detail: detail}
	}
	if len(raw) < frameHeader+9 {
		return nil, 0, bad(fmt.Sprintf("file of %d byte(s) shorter than a checkpoint frame", len(raw))), nil
	}
	n := binary.LittleEndian.Uint32(raw[0:4])
	sum := binary.LittleEndian.Uint32(raw[4:8])
	if int64(n) != int64(len(raw)-frameHeader) {
		return nil, 0, bad("frame length does not match file size"), nil
	}
	payload := raw[frameHeader:]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, 0, bad("checksum mismatch"), nil
	}
	if payload[0] != ckptType {
		return nil, 0, bad(fmt.Sprintf("unexpected record type 0x%02x", payload[0])), nil
	}
	first := binary.LittleEndian.Uint64(payload[1:9])
	if first < 1 || first > maxSegment {
		return nil, 0, bad(fmt.Sprintf("implausible first segment index %d", first)), nil
	}
	return append([]byte(nil), payload[9:]...), int(first), nil, nil
}

// logScan is what a log's files hold, read without changing them: the
// recovery, and the repairs that would make the files equal to it.
type logScan struct {
	rec      Recovery
	minSeg   int       // first post-checkpoint segment index (0: none)
	ckptAt   time.Time // checkpoint file's mtime; zero when absent
	ckptBad  bool      // the checkpoint file is damaged: drop it
	live     []liveSeg // replayable segments in index order
	truncate bool      // the last live segment is damaged: cut it to its valid size
	drop     []int     // stale and orphaned segments, in index order
}

// liveSeg is one replayable segment and its size up to the last valid
// record.
type liveSeg struct {
	idx   int
	valid int64
}

// scanLog is the recovery scan shared by openLog, which applies its
// repairs, and by Inspect and ReadLog, which only report them.  It reads
// the checkpoint, then the segments in index order, and stops replaying
// at the first damage: later segments are past the failure.
func scanLog(dir, name string) (*logScan, error) {
	sc := &logScan{}
	ckpt := filepath.Join(dir, name+".ckpt")
	snapshot, minSeg, dmg, err := readCheckpoint(name, ckpt)
	if err != nil {
		return nil, fmt.Errorf("durable: reading checkpoint of %s: %w", name, err)
	}
	if dmg != nil {
		// The checkpoint is atomic (temp + rename), so damage here is bit
		// rot, not a torn write.  The snapshot is lost; the log segments
		// are still replayable on their own.
		sc.rec.Damage = append(sc.rec.Damage, *dmg)
		sc.ckptBad = true
	} else {
		sc.rec.Snapshot = snapshot
		sc.minSeg = minSeg
	}
	if fi, err := os.Stat(ckpt); err == nil {
		sc.ckptAt = fi.ModTime()
	}
	idxs, err := segments(dir, name)
	if err != nil {
		return nil, fmt.Errorf("durable: listing segments of %s: %w", name, err)
	}
	for _, idx := range idxs {
		switch {
		case idx < sc.minSeg:
			// Snapshotted by the checkpoint but not yet deleted (crash
			// between the checkpoint rename and the truncation): routine
			// cleanup, not damage.
			sc.drop = append(sc.drop, idx)
		case sc.truncate:
			sc.rec.Damage = append(sc.rec.Damage, Damage{Log: name, Segment: segName(name, idx), Kind: "orphaned-segment",
				Detail: "follows a damaged segment; its records are past the failure and cannot be replayed"})
			sc.drop = append(sc.drop, idx)
		default:
			path := filepath.Join(dir, segName(name, idx))
			recs, valid, dmg, err := scanSegment(name, path)
			if err != nil {
				return nil, fmt.Errorf("durable: scanning %s: %w", path, err)
			}
			sc.rec.Records = append(sc.rec.Records, recs...)
			sc.live = append(sc.live, liveSeg{idx: idx, valid: valid})
			if dmg != nil {
				sc.rec.Damage = append(sc.rec.Damage, *dmg)
				sc.truncate = true
			}
		}
	}
	return sc, nil
}

func (l *Log) ckptPath() string { return filepath.Join(l.dir, l.name+".ckpt") }

// openLog recovers a log's state from dir and opens it for appending.
// Damage is repaired in place: a damaged checkpoint is dropped, a damaged
// segment is truncated at its last valid record and every later segment
// is removed, so the on-disk log always equals what recovery replayed.
func openLog(dir, name string, opts Options, met walMetrics, clean bool, crashed *atomic.Bool) (*Log, *Recovery, error) {
	sc, err := scanLog(dir, name)
	if err != nil {
		return nil, nil, err
	}
	l := &Log{
		name: name, dir: dir, opts: opts,
		met: met.forLog(name), crashed: crashed,
	}
	for _, d := range sc.rec.Damage {
		l.met.damage(d.Kind).Inc()
	}
	if !sc.ckptAt.IsZero() {
		l.met.ckpt.Set(sc.ckptAt.Unix())
	}
	// Orphans go first, last to first, then the truncation: a crash
	// part-way through still leaves the damaged segment cutting them off.
	for i := len(sc.drop) - 1; i >= 0; i-- {
		os.Remove(filepath.Join(dir, segName(name, sc.drop[i])))
	}
	if sc.ckptBad {
		os.Remove(l.ckptPath())
	}
	l.seg = max(sc.minSeg, 1)
	flags := os.O_CREATE | os.O_APPEND | os.O_WRONLY
	if n := len(sc.live); n > 0 {
		last := sc.live[n-1]
		if sc.truncate {
			path := filepath.Join(dir, segName(name, last.idx))
			if err := os.Truncate(path, last.valid); err != nil {
				return nil, nil, fmt.Errorf("durable: truncating %s: %w", path, err)
			}
		}
		for _, s := range sc.live {
			l.totalSize += s.valid
		}
		l.seg, l.segSize, l.nsegs = last.idx, last.valid, n
		flags = os.O_APPEND | os.O_WRONLY
	}
	f, err := os.OpenFile(filepath.Join(dir, segName(name, l.seg)), flags, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: opening segment of %s: %w", name, err)
	}
	l.f = f
	l.nsegs = max(l.nsegs, 1)
	rec := &sc.rec
	rec.Clean = clean
	l.met.replayed.Add(uint64(len(rec.Records)))
	l.met.size.Set(l.totalSize)
	l.met.segments.Set(int64(l.nsegs))
	return l, rec, nil
}

// Append journals one record under the store's fsync policy.  The frame
// is built in the log's own buffer under its mutex, so an append
// allocates nothing once that buffer has grown to the records' size.
func (l *Log) Append(typ byte, data []byte) error {
	if typ >= ckptType {
		return fmt.Errorf("durable: record type 0x%02x is reserved", typ)
	}
	if l.crashed.Load() {
		return ErrCrashed
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	l.frame = appendFrame(l.frame[:0], typ, data)
	err := l.appendLocked(l.frame)
	if cap(l.frame) > maxKeptFrame {
		l.frame = nil
	}
	return l.fail(err)
}

// usableLocked is the error a write to the log returns before it touches
// a file: the log is closed, or an earlier write failed.
func (l *Log) usableLocked() error {
	if l.closed {
		return fmt.Errorf("durable: log %s is closed", l.name)
	}
	return l.err
}

// fail keeps the first write failure: from then on every write returns
// it, and Store.Close does too.
func (l *Log) fail(err error) error {
	if err != nil && l.err == nil {
		l.err = err
		l.met.failed.Set(1)
	}
	return err
}

func (l *Log) appendLocked(frame []byte) error {
	if l.segSize > 0 && l.segSize+int64(len(frame)) > l.opts.segmentBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := l.f.Write(frame); err != nil {
		return fmt.Errorf("durable: append to %s: %w", l.name, err)
	}
	l.segSize += int64(len(frame))
	l.totalSize += int64(len(frame))
	l.met.appends.Inc()
	l.met.bytes.Add(uint64(len(frame)))
	l.met.size.Set(l.totalSize)
	switch l.opts.Sync {
	case SyncAlways:
		return l.syncLocked()
	case SyncInterval:
		if time.Since(l.lastSync) >= l.opts.SyncEvery {
			return l.syncLocked()
		}
	}
	return nil
}

// rotateLocked seals the active segment and starts the next one.  The
// sealed segment is flushed (unless the policy is SyncNever) so its tail
// cannot tear once it stops being written.
func (l *Log) rotateLocked() error {
	if l.opts.Sync != SyncNever {
		if err := l.syncLocked(); err != nil {
			return err
		}
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.seg++
	path := filepath.Join(l.dir, segName(l.name, l.seg))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("durable: rotating %s: %w", l.name, err)
	}
	l.f = f
	l.segSize = 0
	l.nsegs++
	l.met.segments.Set(int64(l.nsegs))
	return nil
}

func (l *Log) syncLocked() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("durable: fsync %s: %w", l.name, err)
	}
	l.met.fsyncs.Inc()
	l.lastSync = time.Now()
	return nil
}

// WALSize reports the current byte size of the live segments — the replay
// cost of a crash right now.  Components use it to trigger checkpoints.
func (l *Log) WALSize() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.totalSize
}

// Checkpoint atomically replaces the log's snapshot with the given full
// state and truncates the segments: recovery then starts from the
// snapshot and replays only records appended after this call.  The
// snapshot file is written temp-fsync-rename-dirsync, so a crash at any
// point leaves either the old checkpoint+log or the new.
func (l *Log) Checkpoint(snapshot []byte) error {
	if l.crashed.Load() {
		return ErrCrashed
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	return l.fail(l.checkpointLocked(snapshot))
}

func (l *Log) checkpointLocked(snapshot []byte) error {
	// Seal the current segment and move to a fresh one; the checkpoint
	// names it as the first post-checkpoint segment, so a crash between
	// the rename and the deletes below just leaves stale segments that
	// recovery discards by index.
	if err := l.rotateLocked(); err != nil {
		return err
	}
	data := make([]byte, 9, 9+len(snapshot))
	data[0] = ckptType
	binary.LittleEndian.PutUint64(data[1:9], uint64(l.seg))
	data = append(data, snapshot...)
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(data)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(data))
	if err := writeFileAtomic(l.ckptPath(), append(hdr[:], data...)); err != nil {
		return fmt.Errorf("durable: writing checkpoint of %s: %w", l.name, err)
	}
	l.met.fsyncs.Add(2) // temp file + directory
	for idx := l.seg - 1; idx >= 1; idx-- {
		path := filepath.Join(l.dir, segName(l.name, idx))
		if err := os.Remove(path); err != nil {
			if os.IsNotExist(err) {
				break
			}
			return fmt.Errorf("durable: truncating %s: %w", l.name, err)
		}
		l.nsegs--
	}
	l.totalSize = l.segSize
	l.met.checkpoints.Inc()
	l.met.ckpt.Set(time.Now().Unix())
	l.met.size.Set(l.totalSize)
	l.met.segments.Set(int64(l.nsegs))
	return nil
}

// close flushes (best effort on crash) and closes the active segment.
// It returns the log's kept failure, if any, so a clean Store.Close
// writes no marker over a log that stopped accepting writes.
func (l *Log) close(flush bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.err
	if flush && err == nil {
		err = l.syncLocked()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
