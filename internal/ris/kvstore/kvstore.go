// Package kvstore implements a whois/finger-style directory server: named
// entities carrying string attribute maps.  It stands in for the Stanford
// "whois" and "lookup" personnel databases of Section 4.3.  The store can
// be configured read-only (a public whois mirror) or read-write (the
// department's own lookup service), and optionally offers native change
// callbacks — giving the heterogeneous capability mix that forces
// different strategies per site.
//
// All attribute values are strings: translating them to and from typed
// values is the CM-Translator's job, as the paper's footnote 2 notes for
// cross-model constraints.
package kvstore

import (
	"fmt"
	"sort"
	"sync"

	"cmtk/internal/ris"
)

// Change describes one attribute mutation delivered to watchers.
type Change struct {
	Entity, Attr string
	Old, New     string // empty Old means created; empty New means deleted
	OldOK, NewOK bool
}

// Store is the directory.
type Store struct {
	mu       sync.RWMutex
	name     string
	readOnly bool
	notify   bool
	entities map[string]map[string]string
	watchMu  sync.Mutex
	watchers map[int64]func(Change)
	nextW    int64
}

// New creates a store.  notify enables native change callbacks (Watch);
// a store without notify forces its translator to poll.
func New(name string, readOnly, notify bool) *Store {
	return &Store{
		name:     name,
		readOnly: readOnly,
		notify:   notify,
		entities: map[string]map[string]string{},
		watchers: map[int64]func(Change){},
	}
}

// Get returns one attribute of an entity.
func (s *Store) Get(entity, attr string) (string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	attrs, ok := s.entities[entity]
	if !ok {
		return "", fmt.Errorf("kvstore: entity %q: %w", entity, ris.ErrNotFound)
	}
	v, ok := attrs[attr]
	if !ok {
		return "", fmt.Errorf("kvstore: %s.%s: %w", entity, attr, ris.ErrNotFound)
	}
	return v, nil
}

// Set writes one attribute, creating the entity if needed.
func (s *Store) Set(entity, attr, value string) error {
	if s.readOnly {
		return fmt.Errorf("kvstore: set %s.%s: %w", entity, attr, ris.ErrReadOnly)
	}
	s.mu.Lock()
	attrs, ok := s.entities[entity]
	if !ok {
		attrs = map[string]string{}
		s.entities[entity] = attrs
	}
	old, oldOK := attrs[attr]
	attrs[attr] = value
	s.mu.Unlock()
	s.fire(Change{Entity: entity, Attr: attr, Old: old, OldOK: oldOK, New: value, NewOK: true})
	return nil
}

// Del removes one attribute (and the entity when it becomes empty).
func (s *Store) Del(entity, attr string) error {
	if s.readOnly {
		return fmt.Errorf("kvstore: del %s.%s: %w", entity, attr, ris.ErrReadOnly)
	}
	s.mu.Lock()
	attrs, ok := s.entities[entity]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("kvstore: entity %q: %w", entity, ris.ErrNotFound)
	}
	old, oldOK := attrs[attr]
	delete(attrs, attr)
	if len(attrs) == 0 {
		delete(s.entities, entity)
	}
	s.mu.Unlock()
	if oldOK {
		s.fire(Change{Entity: entity, Attr: attr, Old: old, OldOK: true})
	}
	return nil
}

// SeedSet writes an attribute bypassing the read-only restriction, for
// populating mirrors in tests and examples (the data got there somehow).
func (s *Store) SeedSet(entity, attr, value string) {
	s.mu.Lock()
	attrs, ok := s.entities[entity]
	if !ok {
		attrs = map[string]string{}
		s.entities[entity] = attrs
	}
	attrs[attr] = value
	s.mu.Unlock()
}

// Entities lists entity names in sorted order.
func (s *Store) Entities() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.entities))
	for e := range s.entities {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}

// Watch registers a change callback; it errors when the store does not
// offer native notification.  Callbacks run synchronously after the
// mutation commits, in registration order.
func (s *Store) Watch(fn func(Change)) (func(), error) {
	if !s.notify {
		return nil, fmt.Errorf("kvstore: %s: %w", s.name, ris.ErrUnsupported)
	}
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	id := s.nextW
	s.nextW++
	s.watchers[id] = fn
	return func() {
		s.watchMu.Lock()
		defer s.watchMu.Unlock()
		delete(s.watchers, id)
	}, nil
}

func (s *Store) fire(c Change) {
	if !s.notify {
		return
	}
	s.watchMu.Lock()
	ids := make([]int64, 0, len(s.watchers))
	for id := range s.watchers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	fns := make([]func(Change), 0, len(ids))
	for _, id := range ids {
		fns = append(fns, s.watchers[id])
	}
	s.watchMu.Unlock()
	for _, fn := range fns {
		fn(c)
	}
}
