package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
)

// Frame layout: [4-byte little-endian length N][4-byte CRC32-IEEE of the
// payload][payload], payload = [1-byte record type][data], so N =
// 1+len(data).  A record can never be empty (the type byte is always
// there), which lets the scanner treat a zero length as corruption rather
// than ambiguity.
const (
	frameHeader    = 8
	maxRecordBytes = 16 << 20
	// maxKeptFrame caps the frame buffer a Log keeps between appends: a
	// buffer grown past it by an unusual record is dropped after that
	// append, so one large record does not pin its size for the log's life.
	maxKeptFrame = 64 << 10
)

// Record is one journaled entry: an opaque component-defined type tag and
// its encoded data.
type Record struct {
	Type byte
	Data []byte
}

// Damage describes one recovery finding: where scanning stopped and why.
// Recovery truncates the log at the last valid record and reports the
// damage instead of replaying past it.
type Damage struct {
	Log     string // log name
	Segment string // segment file name
	Offset  int64  // byte offset of the first bad frame
	Kind    string // "torn-tail", "crc", "orphaned-segment", "checkpoint"
	Detail  string
}

func (d Damage) String() string {
	return fmt.Sprintf("%s: %s at %s+%d: %s", d.Log, d.Kind, d.Segment, d.Offset, d.Detail)
}

// appendFrame appends one framed record to buf without allocating once
// buf has room: the header goes in as a placeholder, and its length and
// checksum are written over it once the payload they describe is in
// place.
func appendFrame(buf []byte, typ byte, data []byte) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0, typ)
	buf = append(buf, data...)
	payload := buf[start+frameHeader:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf
}

// segRe parses segment file names: <log>.<index>.wal, the index
// zero-padded to at least six digits (segName's %06d widens past 999999,
// and every checkpoint moves to the next index).
var segRe = regexp.MustCompile(`^(.+)\.(\d{6,})\.wal$`)

// maxSegment bounds a segment index read from disk, far past any a log
// reaches, so a checkpoint naming a larger one is damage.
const maxSegment = 1 << 62

func segName(log string, idx int) string { return fmt.Sprintf("%s.%06d.wal", log, idx) }

// segments lists a log's segment files in ascending index order.
func segments(dir, log string) ([]int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var idxs []int
	for _, e := range ents {
		m := segRe.FindStringSubmatch(e.Name())
		if m == nil || m[1] != log {
			continue
		}
		n, err := strconv.Atoi(m[2])
		if err != nil || n > maxSegment {
			continue
		}
		idxs = append(idxs, n)
	}
	sort.Ints(idxs)
	return idxs, nil
}

// scanSegment reads one segment's records, stopping at the first invalid
// frame.  It returns the records read, the byte offset of the last valid
// frame's end, and a non-nil Damage when the segment is cut short.  It
// never fails on corrupt content — only on I/O errors.
func scanSegment(log, path string) (recs []Record, valid int64, dmg *Damage, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, nil, err
	}
	base := filepath.Base(path)
	off := int64(0)
	for int64(len(raw))-off > 0 {
		rest := raw[off:]
		if len(rest) < frameHeader {
			return recs, off, &Damage{Log: log, Segment: base, Offset: off, Kind: "torn-tail",
				Detail: fmt.Sprintf("%d trailing byte(s), less than a frame header", len(rest))}, nil
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if n == 0 || n > maxRecordBytes {
			return recs, off, &Damage{Log: log, Segment: base, Offset: off, Kind: "crc",
				Detail: fmt.Sprintf("implausible record length %d", n)}, nil
		}
		if int64(len(rest)) < frameHeader+int64(n) {
			return recs, off, &Damage{Log: log, Segment: base, Offset: off, Kind: "torn-tail",
				Detail: fmt.Sprintf("record of %d byte(s) cut off after %d", n, len(rest)-frameHeader)}, nil
		}
		payload := rest[frameHeader : frameHeader+int64(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, off, &Damage{Log: log, Segment: base, Offset: off, Kind: "crc",
				Detail: "checksum mismatch"}, nil
		}
		recs = append(recs, Record{Type: payload[0], Data: append([]byte(nil), payload[1:]...)})
		off += frameHeader + int64(n)
	}
	return recs, off, nil, nil
}

// fsyncDir flushes directory metadata so renames and unlinks within it
// survive power loss.
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeFileAtomic writes path via a temp file: write, fsync, rename,
// fsync the directory.  Readers see either the old content or the new,
// never a torn mix, even across power loss.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return fsyncDir(filepath.Dir(path))
}
