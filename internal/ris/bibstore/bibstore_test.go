package bibstore

import (
	"errors"
	"strings"
	"testing"

	"cmtk/internal/ris"
)

func seed(t *testing.T) *Store {
	t.Helper()
	s := New()
	err := s.Load(
		Record{Key: "widom96", Author: "Widom", Title: "Constraint Toolkit", Year: 1996, Venue: "ICDE"},
		Record{Key: "widom94", Author: "Widom", Title: "Proof Rules", Year: 1994, Venue: "TR"},
		Record{Key: "gm92", Author: "Garcia-Molina", Title: "Demarcation", Year: 1992, Venue: "EDBT"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGetKeys(t *testing.T) {
	s := seed(t)
	r, err := s.Get("gm92")
	if err != nil || r != (Record{Key: "gm92", Author: "Garcia-Molina", Title: "Demarcation", Year: 1992, Venue: "EDBT"}) {
		t.Fatalf("Get = %+v, %v", r, err)
	}
	if _, err := s.Get("none"); !errors.Is(err, ris.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if ks := s.Keys(); strings.Join(ks, " ") != "gm92 widom94 widom96" {
		t.Fatalf("Keys = %v", ks)
	}
}

func TestLoadErrors(t *testing.T) {
	s := seed(t)
	if err := s.Load(Record{Key: "widom96"}); err == nil {
		t.Fatal("duplicate key accepted")
	}
	if err := s.Load(Record{}); err == nil {
		t.Fatal("empty key accepted")
	}
}
