package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// cleanMarkerFile flags a clean shutdown.  It is written (and fsynced) as
// the last act of Store.Close and consumed by the next Open, so its
// presence proves every log was checkpointed and flushed — a warm restart
// recovers from checkpoints alone, with nothing substantial to replay —
// while its absence means the process died and the log tails are the
// authoritative record.
const cleanMarkerFile = "CLEAN"

var logNameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]*$`)

// Store is one process's durable state directory: a family of named Logs
// plus the clean-shutdown marker.  Components open their Log once, apply
// its Recovery, then journal mutations; Close checkpoints (through the
// registered hooks), flushes, and marks the shutdown clean.
type Store struct {
	dir  string
	opts Options
	met  walMetrics

	crashed atomic.Bool

	mu       sync.Mutex
	logs     map[string]*Log
	wasClean bool
	closed   bool
	closers  []func() error
}

// Open opens (creating if needed) a state directory.  The clean-shutdown
// marker is consumed: it is read, then removed, so only the matching
// Close restores it.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	s := &Store{
		dir:  dir,
		opts: opts.withDefaults(),
		met:  newWALMetrics(opts.Metrics),
		logs: map[string]*Log{},
	}
	marker := filepath.Join(dir, cleanMarkerFile)
	if _, err := os.Stat(marker); err == nil {
		s.wasClean = true
		if err := os.Remove(marker); err != nil {
			return nil, fmt.Errorf("durable: consuming clean marker: %w", err)
		}
		if err := fsyncDir(dir); err != nil {
			return nil, fmt.Errorf("durable: %w", err)
		}
	}
	return s, nil
}

// WasClean reports whether the previous shutdown was clean (the marker
// was present at Open).
func (s *Store) WasClean() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wasClean
}

// Log opens a named log, recovering its checkpoint and records.  A log
// opens once per store: a second call for the same name fails, so every
// Recovery reaches exactly one owner.
func (s *Store) Log(name string) (*Log, *Recovery, error) {
	if !logNameRe.MatchString(name) || name == cleanMarkerFile {
		return nil, nil, fmt.Errorf("durable: bad log name %q", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil, fmt.Errorf("durable: store is closed")
	}
	if _, ok := s.logs[name]; ok {
		return nil, nil, fmt.Errorf("durable: log %s is already open", name)
	}
	l, rec, err := openLog(s.dir, name, s.opts, s.met, s.wasClean, &s.crashed)
	if err != nil {
		return nil, nil, err
	}
	s.logs[name] = l
	return l, rec, nil
}

// OnClose registers a final-checkpoint hook to run during a clean Close,
// before the marker is written (components snapshot their state here so
// warm restarts skip log replay).
func (s *Store) OnClose(fn func() error) {
	s.mu.Lock()
	s.closers = append(s.closers, fn)
	s.mu.Unlock()
}

// Crash simulates kill -9 for tests and the harness: every subsequent
// Append/Sync/Checkpoint fails with ErrCrashed and Close skips the hooks,
// the flush, and the clean marker — whatever reached the OS is exactly
// what the next Open recovers.
func (s *Store) Crash() { s.crashed.Store(true) }

// Close shuts the store down.  On the clean path it runs the registered
// final-checkpoint hooks, flushes and closes every log, and — only when
// every hook and flush succeeded and no log kept a write failure —
// writes the clean-shutdown marker; after Crash it only releases file
// handles.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	closers := s.closers
	logs := make([]*Log, 0, len(s.logs))
	names := make([]string, 0, len(s.logs))
	for name := range s.logs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		logs = append(logs, s.logs[name])
	}
	s.mu.Unlock()

	if s.crashed.Load() {
		for _, l := range logs {
			l.close(false)
		}
		return nil
	}
	var err error
	for _, fn := range closers {
		if e := fn(); err == nil {
			err = e
		}
	}
	for _, l := range logs {
		if e := l.close(true); err == nil {
			err = e
		}
	}
	if err != nil {
		// A failed hook, flush or earlier write leaves the log tails
		// authoritative: no marker, so the next Open replays them.
		return err
	}
	marker := filepath.Join(s.dir, cleanMarkerFile)
	stamp := []byte(fmt.Sprintf("clean shutdown at %s\n", time.Now().UTC().Format(time.RFC3339)))
	return writeFileAtomic(marker, stamp)
}
