package shell

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
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
	if err := s.dur.Append(1, nil); !errors.Is(err, durable.ErrCrashed) {
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

// TestPrivateHandoffKeepsValues: a rebalance handoff moves the selected
// CM-private items as values, with kind and bits intact (a literal
// round trip turns Float 2 and -0.0 into Ints), removes them from the
// exporter, leaves the unselected items there, and journals the installs
// at a durable importer.
func TestPrivateHandoffKeepsValues(t *testing.T) {
	a, _ := retainShell(t, "a", vclock.Epoch, obs.NewRegistry())
	b, _ := retainShell(t, "b", vclock.Epoch, obs.NewRegistry())
	dir := t.TempDir()
	st := openTestStore(t, dir)
	defer st.Close()
	if _, err := b.EnableDurable(st); err != nil {
		t.Fatal(err)
	}
	want := map[string]data.Value{
		"X0": data.NewFloat(2),
		"X1": data.NewFloat(math.Copysign(0, -1)),
		"X2": data.NewFloat(math.Float64frombits(0x7ff8_0000_dead_beef)),
		"X3": data.NewString(`say "hi")`),
	}
	for k, v := range want {
		a.WriteAux(data.Item(k), v)
	}
	a.WriteAux(data.Item("Y0"), data.NewInt(7))

	moved := a.ExportPrivate(func(base string) bool { return base[0] == 'X' })
	if len(moved) != len(want) {
		t.Fatalf("exported %d items, want %d: %v", len(moved), len(want), moved)
	}
	b.ImportPrivate(moved)

	// reflect.DeepEqual compares the kind and the payload bits, which
	// Equal does not: Int 2 equals Float 2 and a NaN equals nothing.
	for k, v := range want {
		if got, ok := a.ReadAux(data.Item(k)); ok {
			t.Errorf("exporter kept %s = %v", k, got)
		}
		if got, ok := b.ReadAux(data.Item(k)); !ok || !reflect.DeepEqual(got, v) {
			t.Errorf("importer holds %s = %v (%s, %#x), want %v (%s, %#x)",
				k, got, got.Kind(), math.Float64bits(got.Float()), v, v.Kind(), math.Float64bits(v.Float()))
		}
	}
	if v, ok := a.ReadAux(data.Item("Y0")); !ok || v.Kind() != data.Int || v.Int() != 7 {
		t.Errorf("unselected Y0 at the exporter = %v/%v, want 7", v, ok)
	}
	if v, ok := b.ReadAux(data.Item("Y0")); ok {
		t.Errorf("unselected Y0 reached the importer: %v", v)
	}

	rec, err := durable.ReadLog(dir, "shell-b")
	if err != nil {
		t.Fatal(err)
	}
	journaled := map[string]string{}
	for _, r := range rec.Records {
		var p pSet
		if err := json.Unmarshal(r.Data, &p); r.Type != pSetRec || err != nil {
			t.Fatalf("journal record %d %q: %v", r.Type, r.Data, err)
		}
		journaled[p.K] = p.V
	}
	if len(journaled) != len(want) {
		t.Fatalf("importer journaled %v, want the %d imported items", journaled, len(want))
	}
	for k, v := range want {
		if journaled[k] != v.String() {
			t.Errorf("importer journaled %s = %q, want %q", k, journaled[k], v.String())
		}
	}
}
