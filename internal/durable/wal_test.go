package durable

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"

	"cmtk/internal/obs"
)

func openStore(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	if opts.Metrics == nil {
		opts.Metrics = obs.NewRegistry()
	}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustLog(t *testing.T, s *Store, name string) (*Log, *Recovery) {
	t.Helper()
	l, rec, err := s.Log(name)
	if err != nil {
		t.Fatal(err)
	}
	return l, rec
}

// TestRecordRoundTripQuick is the WAL codec property test: any sequence
// of (type, data) records appended and recovered comes back identical, in
// order.
func TestRecordRoundTripQuick(t *testing.T) {
	reg := obs.NewRegistry()
	root := t.TempDir()
	check := func(types []byte, datas [][]byte) bool {
		n := len(types)
		if len(datas) < n {
			n = len(datas)
		}
		dir, err := os.MkdirTemp(root, "q")
		if err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{Metrics: reg, segmentBytes: 256}) // force rotation too
		if err != nil {
			t.Fatal(err)
		}
		lg, _, err := s.Log("prop")
		if err != nil {
			t.Fatal(err)
		}
		want := make([]Record, 0, n)
		for i := 0; i < n; i++ {
			typ := types[i] % ckptType // component types stay below the reserved tag
			if err := lg.Append(typ, datas[i]); err != nil {
				t.Fatal(err)
			}
			want = append(want, Record{Type: typ, Data: datas[i]})
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir, Options{Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		_, rec, err := s2.Log("prop")
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Clean || len(rec.Damage) != 0 || len(rec.Records) != len(want) {
			return false
		}
		for i, r := range rec.Records {
			if r.Type != want[i].Type || !bytes.Equal(r.Data, want[i].Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// corruptSetup appends records and returns the store dir and the path of
// the single live segment.
func corruptSetup(t *testing.T, recs []Record) (dir, seg string) {
	t.Helper()
	dir = t.TempDir()
	s := openStore(t, dir, Options{})
	lg, _ := mustLog(t, s, "j")
	for _, r := range recs {
		if err := lg.Append(r.Type, r.Data); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, filepath.Join(dir, "j.000001.wal")
}

func reopen(t *testing.T, dir string) (*Store, *Log, *Recovery) {
	t.Helper()
	s := openStore(t, dir, Options{})
	lg, rec := mustLog(t, s, "j")
	return s, lg, rec
}

func threeRecords() []Record {
	return []Record{
		{Type: 1, Data: []byte("first record")},
		{Type: 2, Data: []byte("second record")},
		{Type: 3, Data: []byte("third record")},
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir, seg := corruptSetup(t, threeRecords())
	// A torn write: half a frame header dangling at the tail.
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x21, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s, lg, rec := reopen(t, dir)
	defer s.Close()
	if len(rec.Records) != 3 {
		t.Fatalf("records = %d, want the 3 intact ones", len(rec.Records))
	}
	if len(rec.Damage) != 1 || rec.Damage[0].Kind != "torn-tail" {
		t.Fatalf("damage = %v, want one torn-tail", rec.Damage)
	}
	// The repair truncated the tail: appending and re-recovering works.
	if err := lg.Append(4, []byte("after repair")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _, rec2 := reopen(t, dir)
	defer s2.Close()
	if len(rec2.Records) != 4 || len(rec2.Damage) != 0 {
		t.Fatalf("after repair: %d records, damage %v", len(rec2.Records), rec2.Damage)
	}
}

func TestTruncatedSegment(t *testing.T) {
	dir, seg := corruptSetup(t, threeRecords())
	// Cut the file mid-record (inside the second record's payload).
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	first := int64(frameHeader + 1 + len("first record"))
	if err := os.Truncate(seg, first+(fi.Size()-first)/2); err != nil {
		t.Fatal(err)
	}
	s, _, rec := reopen(t, dir)
	defer s.Close()
	if len(rec.Records) != 1 || string(rec.Records[0].Data) != "first record" {
		t.Fatalf("records = %v, want only the first", rec.Records)
	}
	if len(rec.Damage) != 1 || rec.Damage[0].Kind != "torn-tail" {
		t.Fatalf("damage = %v, want one torn-tail", rec.Damage)
	}
}

// TestBitFlipStopsReplay proves recovery never replays a record past a
// CRC failure: flipping one bit in the second record cuts the log after
// the first, and the intact third record is NOT recovered.
func TestBitFlipStopsReplay(t *testing.T) {
	dir, seg := corruptSetup(t, threeRecords())
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	second := frameHeader + 1 + len("first record") + frameHeader + 3
	raw[second] ^= 0x40
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s, _, rec := reopen(t, dir)
	defer s.Close()
	if len(rec.Records) != 1 || rec.Records[0].Type != 1 {
		t.Fatalf("records = %v, want replay to stop before the flipped record", rec.Records)
	}
	if len(rec.Damage) != 1 || rec.Damage[0].Kind != "crc" {
		t.Fatalf("damage = %v, want one crc", rec.Damage)
	}
}

// TestOrphanedSegmentsDropped: damage in an early segment makes every
// later segment unreplayable (they are past the failure), and recovery
// reports each as damage instead of panicking or replaying them.
func TestOrphanedSegmentsDropped(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{segmentBytes: 32}) // rotate nearly every record
	lg, _ := mustLog(t, s, "j")
	for i := 0; i < 6; i++ {
		if err := lg.Append(1, bytes.Repeat([]byte{byte('a' + i)}, 24)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "j.*.wal"))
	if err != nil || len(segs) < 3 {
		t.Fatalf("want >=3 segments, got %v (%v)", segs, err)
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[frameHeader+2] ^= 0x01
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, _, rec := reopen(t, dir)
	defer s2.Close()
	if len(rec.Records) != 0 {
		t.Fatalf("records = %d, want none (damage in the first segment)", len(rec.Records))
	}
	kinds := map[string]int{}
	for _, d := range rec.Damage {
		kinds[d.Kind]++
	}
	if kinds["crc"] != 1 || kinds["orphaned-segment"] != len(segs)-1 {
		t.Fatalf("damage kinds = %v, want 1 crc and %d orphaned-segment", kinds, len(segs)-1)
	}
	// The orphans are gone from disk: a later append + recovery is sane.
	left, _ := filepath.Glob(filepath.Join(dir, "j.*.wal"))
	if len(left) != 1 {
		t.Fatalf("segments after repair = %v, want only the truncated first", left)
	}
}

func TestSegmentRotationRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{segmentBytes: 64})
	lg, _ := mustLog(t, s, "rot")
	for i := 0; i < 20; i++ {
		if err := lg.Append(byte(i%7), bytes.Repeat([]byte{byte(i)}, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	_, rec := mustLog(t, s2, "rot")
	if len(rec.Records) != 20 || len(rec.Damage) != 0 {
		t.Fatalf("recovered %d records (damage %v), want 20", len(rec.Records), rec.Damage)
	}
	for i, r := range rec.Records {
		if r.Type != byte(i%7) || len(r.Data) != i {
			t.Fatalf("record %d = {%d, %d bytes}, want {%d, %d bytes}", i, r.Type, len(r.Data), i%7, i)
		}
	}
}

func TestSyncPolicyFsyncCounts(t *testing.T) {
	counts := map[SyncPolicy]uint64{}
	for _, pol := range []SyncPolicy{SyncAlways, SyncNever} {
		reg := obs.NewRegistry()
		dir := t.TempDir()
		s := openStore(t, dir, Options{Sync: pol, Metrics: reg})
		lg, _ := mustLog(t, s, "p")
		for i := 0; i < 50; i++ {
			if err := lg.Append(1, []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		counts[pol] = reg.Counter("cmtk_wal_fsyncs_total", "", "log").With("p").Value()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if counts[SyncAlways] < 50 {
		t.Errorf("always policy fsynced %d times for 50 appends", counts[SyncAlways])
	}
	if counts[SyncNever] != 0 {
		t.Errorf("never policy fsynced %d times before close", counts[SyncNever])
	}
}

// TestReadLogEqualsColdOpen: the read-only ReadLog reports exactly the
// Recovery a cold open returns, on the orphaned-segment case where the
// two once built their Damage differently.
func TestReadLogEqualsColdOpen(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{segmentBytes: 32})
	lg, _ := mustLog(t, s, "j")
	for i := 0; i < 4; i++ {
		if err := lg.Append(1, bytes.Repeat([]byte{byte('a' + i)}, 24)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segName("j", 2))
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[frameHeader+2] ^= 0x01
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	read, err := ReadLog(dir, "j")
	if err != nil {
		t.Fatal(err)
	}
	s2, _, opened := reopen(t, dir)
	defer s2.Close()
	if len(opened.Damage) != 3 {
		t.Fatalf("damage = %v, want a crc and two orphaned segments", opened.Damage)
	}
	if !reflect.DeepEqual(read, opened) {
		t.Fatalf("ReadLog = %+v\ncold open = %+v", read, opened)
	}
}

// TestSegmentIndexPastSixDigits: segment names widen to seven digits at
// index 1000000, and recovery still finds the active segment there.
func TestSegmentIndexPastSixDigits(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	lg, _ := mustLog(t, s, "j")
	lg.mu.Lock()
	lg.seg = 999_998
	lg.mu.Unlock()
	for i := 0; i < 2; i++ {
		if err := lg.Checkpoint([]byte("snap")); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Append(1, []byte("past 999999")); err != nil {
		t.Fatal(err)
	}
	s.Crash()
	s.Close()
	s2, _, rec := reopen(t, dir)
	defer s2.Close()
	if len(rec.Records) != 1 || string(rec.Records[0].Data) != "past 999999" || string(rec.Snapshot) != "snap" {
		t.Fatalf("recovered snapshot %q and %d of 1 records", rec.Snapshot, len(rec.Records))
	}
}

// FuzzLogRecovery writes arbitrary bytes as the first segment and as the
// checkpoint file (a well-formed second segment follows the first), then
// holds recovery to three properties: opening never panics, ReadLog
// reports the Recovery the cold open returns, and a second open after the
// repair finds no damage and the same snapshot and records.
func FuzzLogRecovery(f *testing.F) {
	rec := appendFrame(nil, 1, []byte("first record"))
	f.Add(rec, []byte(nil))
	f.Add(append(rec, 0x21, 0, 0), []byte(nil))
	f.Add(rec[:len(rec)-3], checkpointFile(2, []byte("snapshot")))
	f.Add(rec, checkpointFile(5, nil))
	f.Add([]byte{}, []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, seg, ckpt []byte) {
		dir := t.TempDir()
		write := func(name string, b []byte) {
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		write(segName("j", 1), seg)
		write(segName("j", 2), appendFrame(nil, 2, []byte("second segment")))
		if len(ckpt) > 0 {
			write("j.ckpt", ckpt)
		}
		read, err := ReadLog(dir, "j")
		if err != nil {
			t.Fatal(err)
		}
		s, _, opened := reopen(t, dir)
		s.Crash()
		s.Close()
		if !reflect.DeepEqual(read, opened) {
			t.Fatalf("ReadLog = %+v\ncold open = %+v", read, opened)
		}
		s2, _, again := reopen(t, dir)
		s2.Crash()
		s2.Close()
		if len(again.Damage) != 0 {
			t.Fatalf("second open found damage %v after the repair", again.Damage)
		}
		if !bytes.Equal(again.Snapshot, opened.Snapshot) || !reflect.DeepEqual(again.Records, opened.Records) {
			t.Fatalf("second open = %q / %v, first = %q / %v", again.Snapshot, again.Records, opened.Snapshot, opened.Records)
		}
	})
}

// checkpointFile frames a checkpoint naming first as the first
// post-checkpoint segment, as Checkpoint writes it.
func checkpointFile(first uint64, snapshot []byte) []byte {
	data := binary.LittleEndian.AppendUint64([]byte{ckptType}, first)
	data = append(data, snapshot...)
	hdr := binary.LittleEndian.AppendUint32(nil, uint32(len(data)))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(data))
	return append(hdr, data...)
}
