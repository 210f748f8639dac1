// Package bibstore implements a read-only bibliographic information
// system, the WAIS-like source of Sections 4.1 and 4.3.  Its native
// interface is query-only: look a record up by citation key, or list the
// keys.  The constraint manager can neither write it nor subscribe to
// it, so the only strategies available over it are polling ones, and
// constraints that would require writing it can only be monitored —
// exactly the situation Section 6.3 motivates.
package bibstore

import (
	"fmt"
	"sort"
	"sync"

	"cmtk/internal/ris"
)

// Record is one bibliography entry.
type Record struct {
	Key    string // citation key, unique
	Author string // primary author
	Title  string
	Year   int
	Venue  string
}

// Store is the bibliography.
type Store struct {
	mu    sync.RWMutex
	byKey map[string]Record
}

// New creates an empty bibliography.
func New() *Store {
	return &Store{byKey: map[string]Record{}}
}

// Load adds records during setup.  This is administrative population (the
// bibliography is maintained elsewhere), not a CM-visible write path.
func (s *Store) Load(recs ...Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range recs {
		if r.Key == "" {
			return fmt.Errorf("bibstore: record with empty key")
		}
		if _, dup := s.byKey[r.Key]; dup {
			return fmt.Errorf("bibstore: duplicate key %q", r.Key)
		}
		s.byKey[r.Key] = r
	}
	return nil
}

// Get returns one record by key.
func (s *Store) Get(key string) (Record, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.byKey[key]
	if !ok {
		return Record{}, fmt.Errorf("bibstore: key %q: %w", key, ris.ErrNotFound)
	}
	return r, nil
}

// Keys lists all citation keys in sorted order.
func (s *Store) Keys() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.byKey))
	for k := range s.byKey {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
