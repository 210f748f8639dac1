// Package filestore implements a flat-file record store over a real
// directory, standing in for the Unix file system sources of the paper
// (Sections 4.3 and 5).  Each named file holds one record per line in the
// form "key<TAB>value".  The native interface is deliberately file-like:
// whole-file reads and atomic rewrites, with failures surfacing the way
// read(2)/write(2) failures do, so the CM-Translator's failure mapping
// (Section 5's read() example) is exercised for real.
//
// The store has no native notification; a translator that needs a Notify
// interface must poll Snapshot and diff — which is exactly the
// polling-simulates-notification fallback the paper describes.
package filestore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"cmtk/internal/ris"
)

// Store is a directory of record files.
type Store struct {
	dir      string
	readOnly bool
	mu       sync.Mutex // serializes rewrites per process
}

// Open returns a store rooted at dir, creating the directory if needed.
func Open(dir string, readOnly bool) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("filestore: %w", err)
	}
	return &Store{dir: dir, readOnly: readOnly}, nil
}

func (s *Store) path(file string) (string, error) {
	if file == "" || strings.ContainsAny(file, "/\\") || strings.HasPrefix(file, ".") {
		return "", fmt.Errorf("filestore: bad file name %q", file)
	}
	return filepath.Join(s.dir, file+".rec"), nil
}

// Snapshot reads all records of a file.  A missing file reads as an empty
// record set (like an empty directory listing), not an error.
func (s *Store) Snapshot(file string) (map[string]string, error) {
	p, err := s.path(file)
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(p)
	if err != nil {
		if os.IsNotExist(err) {
			return map[string]string{}, nil
		}
		return nil, fmt.Errorf("filestore: read %s: %w", file, ris.Transient(err))
	}
	out := map[string]string{}
	for ln, line := range strings.Split(string(b), "\n") {
		if line == "" {
			continue
		}
		k, v, ok := strings.Cut(line, "\t")
		if !ok {
			return nil, fmt.Errorf("filestore: %s line %d: malformed record", file, ln+1)
		}
		out[unescape(k)] = unescape(v)
	}
	return out, nil
}

// Read returns one record's value.
func (s *Store) Read(file, key string) (string, error) {
	recs, err := s.Snapshot(file)
	if err != nil {
		return "", err
	}
	v, ok := recs[key]
	if !ok {
		return "", fmt.Errorf("filestore: %s[%s]: %w", file, key, ris.ErrNotFound)
	}
	return v, nil
}

// Write sets one record, rewriting the file atomically.
func (s *Store) Write(file, key, value string) error {
	return s.mutate(file, func(recs map[string]string) { recs[key] = value })
}

// Delete removes one record; deleting a missing record is a no-op.
func (s *Store) Delete(file, key string) error {
	return s.mutate(file, func(recs map[string]string) { delete(recs, key) })
}

func (s *Store) mutate(file string, f func(map[string]string)) error {
	if s.readOnly {
		return fmt.Errorf("filestore: write %s: %w", file, ris.ErrReadOnly)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	recs, err := s.Snapshot(file)
	if err != nil {
		return err
	}
	f(recs)
	p, err := s.path(file)
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(recs))
	for k := range recs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(escape(k))
		b.WriteByte('\t')
		b.WriteString(escape(recs[k]))
		b.WriteByte('\n')
	}
	// Atomic rewrite that is actually durable: the temp file's contents
	// must reach the disk before the rename, and the rename itself before
	// success is reported — otherwise a power failure can leave the new
	// name pointing at zero-length or stale data.
	tmp := p + ".tmp"
	tf, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("filestore: write %s: %w", file, ris.Transient(err))
	}
	if _, err := tf.WriteString(b.String()); err != nil {
		tf.Close()
		return fmt.Errorf("filestore: write %s: %w", file, ris.Transient(err))
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		return fmt.Errorf("filestore: sync %s: %w", file, ris.Transient(err))
	}
	if err := tf.Close(); err != nil {
		return fmt.Errorf("filestore: write %s: %w", file, ris.Transient(err))
	}
	if err := os.Rename(tmp, p); err != nil {
		return fmt.Errorf("filestore: commit %s: %w", file, ris.Transient(err))
	}
	if d, err := os.Open(s.dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

func escape(s string) string {
	s = strings.ReplaceAll(s, "\\", `\\`)
	s = strings.ReplaceAll(s, "\t", `\t`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return s
}

func unescape(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			switch s[i+1] {
			case 't':
				b.WriteByte('\t')
			case 'n':
				b.WriteByte('\n')
			case '\\':
				b.WriteByte('\\')
			default:
				b.WriteByte(s[i+1])
			}
			i++
			continue
		}
		b.WriteByte(s[i])
	}
	return b.String()
}
