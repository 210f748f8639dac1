package shell

import (
	"errors"
	"testing"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/durable"
	"cmtk/internal/obs"
	"cmtk/internal/rule"
	"cmtk/internal/vclock"
)

func durShell(t *testing.T, store *durable.Store) (*Shell, int) {
	t.Helper()
	spec, err := rule.ParseSpecString(`
site S
private cx @ S
private flag @ S
private tb @ S
`)
	if err != nil {
		t.Fatal(err)
	}
	clk := vclock.NewVirtual(vclock.Epoch)
	s := New("s", spec, Options{Clock: clk, Metrics: obs.NewRegistry()})
	s.AddSite("S", nil)
	restored, err := s.EnableDurable(store)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	return s, restored
}

func openTestStore(t *testing.T, dir string) *durable.Store {
	t.Helper()
	st, err := durable.Open(dir, durable.Options{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestPrivateStateSurvivesRestart: Cx / Flag / Tb style private items set
// through every write path come back after a clean restart.
func TestPrivateStateSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	s, restored := durShell(t, st)
	if restored != 0 {
		t.Fatalf("fresh shell restored %d items", restored)
	}
	s.WriteAux(data.Item("cx"), data.NewInt(42))
	s.WriteAux(data.Item("flag"), data.NewString("armed"))
	s.RequestWrite(data.Item("tb"), data.NewInt(77)) // private: engine write path
	s.Stop()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openTestStore(t, dir)
	defer st2.Close()
	s2, restored := durShell(t, st2)
	defer s2.Stop()
	if restored != 3 {
		t.Fatalf("restored %d items, want 3", restored)
	}
	if v, ok := s2.ReadAux(data.Item("cx")); !ok || v.String() != "42" {
		t.Fatalf("cx = %v/%v", v, ok)
	}
	if v, ok := s2.ReadAux(data.Item("flag")); !ok || v.String() != `"armed"` {
		t.Fatalf("flag = %v/%v", v, ok)
	}
	if v, ok := s2.ReadAux(data.Item("tb")); !ok || v.String() != "77" {
		t.Fatalf("tb = %v/%v", v, ok)
	}
}

// TestPrivateStateCrashKeepsFlushedWrites: a hard crash preserves exactly
// the journaled prefix; writes after the crash instant are gone.
func TestPrivateStateCrashKeepsFlushedWrites(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	s, _ := durShell(t, st)
	s.WriteAux(data.Item("cx"), data.NewInt(1))
	st.Crash()
	s.WriteAux(data.Item("cx"), data.NewInt(2)) // post-crash: not persisted
	if err := s.dur.Sync(); !errors.Is(err, durable.ErrCrashed) {
		t.Fatalf("journal after the crash = %v, want ErrCrashed", err)
	}
	s.Stop()
	st.Close()

	st2 := openTestStore(t, dir)
	defer st2.Close()
	s2, restored := durShell(t, st2)
	defer s2.Stop()
	if restored != 1 {
		t.Fatalf("restored %d items, want 1", restored)
	}
	if v, ok := s2.ReadAux(data.Item("cx")); !ok || v.String() != "1" {
		t.Fatalf("cx = %v/%v, want the pre-crash 1", v, ok)
	}
}

// TestPrivateStateTimestampRoundTrip: time-valued private items (the Tb
// of the Section 6.3 monitor) survive the literal round trip.
func TestPrivateStateTimestampRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	s, _ := durShell(t, st)
	when := vclock.Epoch.Add(90 * time.Minute)
	s.WriteAux(data.Item("tb"), vclock.TimeValue(when))
	s.Stop()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openTestStore(t, dir)
	defer st2.Close()
	s2, _ := durShell(t, st2)
	defer s2.Stop()
	v, ok := s2.ReadAux(data.Item("tb"))
	if !ok || v.String() != vclock.TimeValue(when).String() {
		t.Fatalf("tb = %v/%v, want %v", v, ok, vclock.TimeValue(when))
	}
}

func TestEnableDurableTwiceRejected(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	defer st.Close()
	s, _ := durShell(t, st)
	defer s.Stop()
	if _, err := s.EnableDurable(st); err == nil {
		t.Fatal("second EnableDurable accepted")
	}
}
