package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"cmtk/internal/obs"
)

func TestCheckpointTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	lg, rec := mustLog(t, s, "ck")
	if rec.Snapshot != nil || len(rec.Records) != 0 {
		t.Fatalf("fresh log recovered %v / %v", rec.Snapshot, rec.Records)
	}
	for i := 0; i < 5; i++ {
		if err := lg.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Checkpoint([]byte("state after five")); err != nil {
		t.Fatal(err)
	}
	if err := lg.Append(2, []byte("post-ckpt")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	_, rec2 := mustLog(t, s2, "ck")
	if string(rec2.Snapshot) != "state after five" {
		t.Fatalf("snapshot = %q", rec2.Snapshot)
	}
	if len(rec2.Records) != 1 || rec2.Records[0].Type != 2 || string(rec2.Records[0].Data) != "post-ckpt" {
		t.Fatalf("records = %v, want only the post-checkpoint one", rec2.Records)
	}
	if !rec2.Clean {
		t.Fatal("clean shutdown not detected")
	}
}

func TestCleanMarkerConsumedAndCrashSkipsIt(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	lg, _ := mustLog(t, s, "m")
	if err := lg.Append(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, cleanMarkerFile)); err != nil {
		t.Fatalf("clean marker missing after Close: %v", err)
	}

	// Reopen: the marker is consumed, so a crash now leaves no stale
	// marker behind.
	s2 := openStore(t, dir, Options{})
	if !s2.WasClean() {
		t.Fatal("WasClean = false after a clean shutdown")
	}
	if _, err := os.Stat(filepath.Join(dir, cleanMarkerFile)); !os.IsNotExist(err) {
		t.Fatal("marker not consumed at open")
	}
	lg2, rec := mustLog(t, s2, "m")
	if !rec.Clean || len(rec.Records) != 1 {
		t.Fatalf("recovery = clean:%v records:%d", rec.Clean, len(rec.Records))
	}
	if err := lg2.Append(1, []byte("y")); err != nil {
		t.Fatal(err)
	}
	s2.Crash()
	if err := lg2.Append(1, []byte("lost")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("append after crash = %v, want ErrCrashed", err)
	}
	if err := lg2.Checkpoint(nil); !errors.Is(err, ErrCrashed) {
		t.Fatalf("checkpoint after crash = %v, want ErrCrashed", err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, cleanMarkerFile)); !os.IsNotExist(err) {
		t.Fatal("crashed Close wrote the clean marker")
	}

	s3 := openStore(t, dir, Options{})
	defer s3.Close()
	if s3.WasClean() {
		t.Fatal("WasClean = true after a crash")
	}
	_, rec3 := mustLog(t, s3, "m")
	if rec3.Clean || len(rec3.Records) != 2 {
		t.Fatalf("post-crash recovery = clean:%v records:%d, want dirty with both appends", rec3.Clean, len(rec3.Records))
	}
}

func TestOnCloseHooksCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	lg, _ := mustLog(t, s, "h")
	for i := 0; i < 3; i++ {
		if err := lg.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	s.OnClose(func() error { return lg.Checkpoint([]byte("final")) })
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	_, rec := mustLog(t, s2, "h")
	if string(rec.Snapshot) != "final" || len(rec.Records) != 0 {
		t.Fatalf("warm restart recovered snapshot %q + %d records, want checkpoint only", rec.Snapshot, len(rec.Records))
	}
}

// TestFailedCloseWritesNoCleanMarker: a final-checkpoint hook that fails
// makes Close return its error and leaves the shutdown dirty, so the next
// Open replays the log tail instead of trusting checkpoints.
func TestFailedCloseWritesNoCleanMarker(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	lg, _ := mustLog(t, s, "f")
	if err := lg.Append(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	hookErr := errors.New("final checkpoint failed")
	s.OnClose(func() error { return hookErr })
	if err := s.Close(); !errors.Is(err, hookErr) {
		t.Fatalf("Close = %v, want the hook's error", err)
	}
	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	if s2.WasClean() {
		t.Fatal("WasClean = true after a Close that failed")
	}
	if _, rec := mustLog(t, s2, "f"); rec.Clean || len(rec.Records) != 1 {
		t.Fatalf("recovery = clean:%v records:%d, want dirty with the append", rec.Clean, len(rec.Records))
	}
}

func TestLogOpenIsOnceAndNamesValidated(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	defer s.Close()
	l1, rec1 := mustLog(t, s, "once")
	if rec1 == nil {
		t.Fatal("first open returned nil recovery")
	}
	if l2, rec2, err := s.Log("once"); err == nil {
		t.Fatalf("second open = %v/%v, want an error", l2, rec2)
	}
	for _, bad := range []string{"", "a/b", "..", ".hidden", "CLEAN"} {
		if _, _, err := s.Log(bad); err == nil {
			t.Errorf("log name %q accepted", bad)
		}
	}
	if err := l1.Append(ckptType, nil); err == nil {
		t.Error("reserved record type accepted")
	}
}

func TestWALSizeAndCheckpointResetsIt(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	defer s.Close()
	lg, _ := mustLog(t, s, "sz")
	if lg.WALSize() != 0 {
		t.Fatalf("fresh WALSize = %d", lg.WALSize())
	}
	payload := bytes.Repeat([]byte("d"), 100)
	for i := 0; i < 10; i++ {
		if err := lg.Append(1, payload); err != nil {
			t.Fatal(err)
		}
	}
	grown := lg.WALSize()
	if grown < 1000 {
		t.Fatalf("WALSize = %d after 10x100-byte appends", grown)
	}
	if err := lg.Checkpoint([]byte("snap")); err != nil {
		t.Fatal(err)
	}
	if lg.WALSize() != 0 {
		t.Fatalf("WALSize = %d after checkpoint, want 0", lg.WALSize())
	}
}

func TestInspectIsReadOnly(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, Options{})
	lg, _ := mustLog(t, s, "ins")
	for i := 0; i < 4; i++ {
		if err := lg.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Checkpoint([]byte("snapshot!")); err != nil {
		t.Fatal(err)
	}
	if err := lg.Append(2, []byte("tail")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail, then inspect: the damage is reported but NOT repaired.
	seg := filepath.Join(dir, "ins.000002.wal")
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{1, 2, 3})
	f.Close()
	before, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	infos, clean, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !clean {
		t.Error("clean marker not reported")
	}
	if len(infos) != 1 {
		t.Fatalf("infos = %v", infos)
	}
	in := infos[0]
	if in.Name != "ins" || !in.HasCheckpoint || in.CheckpointLen != int64(len("snapshot!")) || in.Records != 1 {
		t.Fatalf("info = %+v", in)
	}
	if len(in.Damage) != 1 || in.Damage[0].Kind != "torn-tail" {
		t.Fatalf("damage = %v", in.Damage)
	}
	rec, err := ReadLog(dir, "ins")
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.Snapshot) != "snapshot!" || len(rec.Records) != 1 || string(rec.Records[0].Data) != "tail" {
		t.Fatalf("ReadLog = %q / %v", rec.Snapshot, rec.Records)
	}
	after, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("Inspect/ReadLog modified the segment")
	}
	if _, err := os.Stat(filepath.Join(dir, cleanMarkerFile)); err != nil {
		t.Fatal("Inspect consumed the clean marker")
	}
}

// TestFailedWriteStopsTheLog: once an append fails, the log refuses every
// later write with that error, even after the file handle works again,
// flags cmtk_wal_failed, and Store.Close returns the error and writes no
// clean marker — so the next open recovers exactly the records before
// the failure, with no gap behind a later write.
func TestFailedWriteStopsTheLog(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s := openStore(t, dir, Options{Metrics: reg})
	lg, _ := mustLog(t, s, "fs")
	if err := lg.Append(1, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	good := lg.f
	ro, err := os.Open(good.Name()) // read-only: the next write fails
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	lg.mu.Lock()
	lg.f = ro
	lg.mu.Unlock()
	failed := lg.Append(1, []byte("lost"))
	if failed == nil {
		t.Fatal("append through a read-only handle succeeded")
	}
	lg.mu.Lock()
	lg.f = good
	lg.mu.Unlock()
	if err := lg.Append(1, []byte("after the gap")); err != failed {
		t.Fatalf("append after a failure = %v, want the kept %v", err, failed)
	}
	if err := lg.Checkpoint([]byte("snap")); err != failed {
		t.Fatalf("checkpoint after a failure = %v, want the kept %v", err, failed)
	}
	if got := reg.Snapshot()[`cmtk_wal_failed{log="fs"}`]; got != 1 {
		t.Fatalf("cmtk_wal_failed = %v, want 1", got)
	}
	if err := s.Close(); err != failed {
		t.Fatalf("Close = %v, want the kept %v", err, failed)
	}
	s2 := openStore(t, dir, Options{})
	defer s2.Close()
	if s2.WasClean() {
		t.Fatal("WasClean = true after a log failed")
	}
	_, rec := mustLog(t, s2, "fs")
	if len(rec.Records) != 1 || string(rec.Records[0].Data) != "kept" || len(rec.Damage) != 0 {
		t.Fatalf("recovered %v (damage %v), want only the record before the failure", rec.Records, rec.Damage)
	}
}
