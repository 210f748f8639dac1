package filestore

import (
	"errors"
	"testing"
	"testing/quick"

	"cmtk/internal/ris"
)

func open(t *testing.T, readOnly bool) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), readOnly)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWriteReadDelete(t *testing.T) {
	s := open(t, false)
	if err := s.Write("phones", "ann", "555-0101"); err != nil {
		t.Fatal(err)
	}
	if err := s.Write("phones", "bob", "555-0102"); err != nil {
		t.Fatal(err)
	}
	v, err := s.Read("phones", "ann")
	if err != nil || v != "555-0101" {
		t.Fatalf("Read = %q, %v", v, err)
	}
	if err := s.Delete("phones", "ann"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read("phones", "ann"); !errors.Is(err, ris.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	// Deleting a missing key is a no-op.
	if err := s.Delete("phones", "zz"); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotMissingFileEmpty(t *testing.T) {
	s := open(t, false)
	recs, err := s.Snapshot("nothing")
	if err != nil || len(recs) != 0 {
		t.Fatalf("Snapshot = %v, %v", recs, err)
	}
}

func TestOverwrite(t *testing.T) {
	s := open(t, false)
	s.Write("f", "k", "v1")
	s.Write("f", "k", "v2")
	v, err := s.Read("f", "k")
	if err != nil || v != "v2" {
		t.Fatalf("Read = %q, %v", v, err)
	}
	recs, _ := s.Snapshot("f")
	if len(recs) != 1 {
		t.Fatalf("records = %v", recs)
	}
}

func TestReadOnly(t *testing.T) {
	s := open(t, true)
	if err := s.Write("f", "k", "v"); !errors.Is(err, ris.ErrReadOnly) {
		t.Fatalf("err = %v", err)
	}
	if err := s.Delete("f", "k"); !errors.Is(err, ris.ErrReadOnly) {
		t.Fatalf("err = %v", err)
	}
}

func TestBadFileNames(t *testing.T) {
	s := open(t, false)
	for _, bad := range []string{"", "a/b", "..", ".hidden", `a\b`} {
		if err := s.Write(bad, "k", "v"); err == nil {
			t.Errorf("Write(%q) succeeded", bad)
		}
	}
}

func TestEscaping(t *testing.T) {
	s := open(t, false)
	cases := []struct{ k, v string }{
		{"tab\tkey", "value\twith\ttabs"},
		{"nl\nkey", "value\nwith\nnewlines"},
		{`back\slash`, `v\al`},
		{"plain", ""},
	}
	for _, c := range cases {
		if err := s.Write("esc", c.k, c.v); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range cases {
		v, err := s.Read("esc", c.k)
		if err != nil || v != c.v {
			t.Fatalf("Read(%q) = %q, %v; want %q", c.k, v, err, c.v)
		}
	}
}

func TestPersistenceAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	s1.Write("f", "k", "v")
	s2, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	v, err := s2.Read("f", "k")
	if err != nil || v != "v" {
		t.Fatalf("Read = %q, %v", v, err)
	}
}

// Property: any key/value set round-trips through a write-all then
// snapshot.
func TestQuickRoundTrip(t *testing.T) {
	s := open(t, false)
	i := 0
	f := func(keys []string, vals []string) bool {
		i++
		file := "q"
		want := map[string]string{}
		for j, k := range keys {
			if k == "" {
				continue
			}
			v := ""
			if j < len(vals) {
				v = vals[j]
			}
			if err := s.Write(file, k, v); err != nil {
				return false
			}
			want[k] = v
		}
		got, err := s.Snapshot(file)
		if err != nil {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
