package kvstore

import (
	"errors"
	"testing"

	"cmtk/internal/ris"
)

func TestSetGetLookup(t *testing.T) {
	s := New("lookup", false, false)
	if err := s.Set("ann", "phone", "555-0101"); err != nil {
		t.Fatal(err)
	}
	if err := s.Set("ann", "office", "444"); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get("ann", "phone")
	if err != nil || v != "555-0101" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if v, err := s.Get("ann", "office"); err != nil || v != "444" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if _, err := s.Get("ann", "nope"); !errors.Is(err, ris.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if _, err := s.Get("zed", "phone"); !errors.Is(err, ris.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestDel(t *testing.T) {
	s := New("lookup", false, false)
	s.Set("ann", "phone", "1")
	if err := s.Del("ann", "phone"); err != nil {
		t.Fatal(err)
	}
	// Entity vanishes when empty.
	if ents := s.Entities(); len(ents) != 0 {
		t.Fatalf("Entities = %v", ents)
	}
	if err := s.Del("ann", "phone"); !errors.Is(err, ris.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestReadOnly(t *testing.T) {
	s := New("whois", true, false)
	if err := s.Set("a", "b", "c"); !errors.Is(err, ris.ErrReadOnly) {
		t.Fatalf("err = %v", err)
	}
	if err := s.Del("a", "b"); !errors.Is(err, ris.ErrReadOnly) {
		t.Fatalf("err = %v", err)
	}
	s.SeedSet("a", "b", "c")
	if v, err := s.Get("a", "b"); err != nil || v != "c" {
		t.Fatalf("Get after seed = %q, %v", v, err)
	}
}

func TestWatch(t *testing.T) {
	s := New("lookup", false, true)
	var changes []Change
	cancel, err := s.Watch(func(c Change) { changes = append(changes, c) })
	if err != nil {
		t.Fatal(err)
	}
	s.Set("ann", "phone", "1")
	s.Set("ann", "phone", "2")
	s.Del("ann", "phone")
	if len(changes) != 3 {
		t.Fatalf("changes = %v", changes)
	}
	if changes[0].OldOK || changes[0].New != "1" || !changes[0].NewOK {
		t.Fatalf("create change: %+v", changes[0])
	}
	if changes[1].Old != "1" || changes[1].New != "2" {
		t.Fatalf("update change: %+v", changes[1])
	}
	if changes[2].NewOK || changes[2].Old != "2" {
		t.Fatalf("delete change: %+v", changes[2])
	}
	cancel()
	s.Set("bob", "phone", "3")
	if len(changes) != 3 {
		t.Fatal("watcher fired after cancel")
	}
}

func TestWatchUnsupported(t *testing.T) {
	s := New("whois", false, false)
	if _, err := s.Watch(func(Change) {}); !errors.Is(err, ris.ErrUnsupported) {
		t.Fatalf("err = %v", err)
	}
	// Mutations on a non-notify store don't panic.
	s.Set("a", "b", "c")
}

func TestEntities(t *testing.T) {
	s := New("x", false, false)
	s.Set("zed", "a", "1")
	s.Set("ann", "a", "1")
	got := s.Entities()
	if len(got) != 2 || got[0] != "ann" || got[1] != "zed" {
		t.Fatalf("Entities = %v", got)
	}
}
