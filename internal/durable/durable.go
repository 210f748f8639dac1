// Package durable is the crash-recovery substrate of the toolkit: an
// append-only, segment-rotating write-ahead log with CRC32-framed records
// and checkpoint files, grouped per process under one state directory
// (a Store).
//
// Section 5 of the paper only lets a site crash degrade to a *metric*
// failure "if the database ... can remember messages that need to be sent
// out upon recovery".  The components that must remember — the reliable
// transport's outbox and dedup state, a shell's CM-private items (a
// demarcation agent's value and limit among them) — each journal their
// mutations into a named Log and snapshot their full state into its
// checkpoint, so a killed process replays its way back to the pre-crash
// state instead of silently losing fires.  A Log is fail-stop: after one
// failed write it refuses every later one, so a component need not keep
// its own failure latch.
//
// Records are framed as [4-byte length][4-byte CRC32(payload)][payload],
// where payload is [1-byte type][data]; the type byte is the component's
// own codec tag.  On open the log scans its segments in order and stops
// at the first damage — a torn tail is truncated, a CRC mismatch cuts the
// log there, and later segments are never replayed past the failure — so
// recovery never panics and never applies a corrupt record.  The
// read-only Inspect and ReadLog run the same scan and leave the files as
// they are.  The fsync
// policy is configurable (always / interval / never) and its cost is
// visible through the cmtk_wal_* metrics (see OBSERVABILITY.md).
package durable

import (
	"fmt"
	"time"

	"cmtk/internal/obs"
)

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy int

// Fsync policies.
const (
	// SyncAlways fsyncs after every append: no record is lost to a power
	// failure, at one fsync per record.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs lazily, at most once per SyncEvery, bounding the
	// window of records a power failure can lose.
	SyncInterval
	// SyncNever leaves flushing to the OS page cache: a process crash
	// loses nothing (the kernel holds the writes), a power failure may
	// lose the unflushed tail.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	default:
		return "never"
	}
}

// ParseSyncPolicy parses "always", "interval" or "never".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("durable: unknown sync policy %q (want always|interval|never)", s)
}

// Options tunes a Store and the Logs it opens.
type Options struct {
	// Sync is the fsync policy for appends (default SyncAlways).
	Sync SyncPolicy
	// SyncEvery is the lazy-fsync interval under SyncInterval (default
	// 100ms).
	SyncEvery time.Duration
	// Metrics is the registry the cmtk_wal_* families land in; nil means
	// obs.Default.
	Metrics *obs.Registry

	// segmentBytes rotates the active segment when it would exceed this
	// size (default 4MB); rotation tests shrink it.
	segmentBytes int64
}

func (o Options) withDefaults() Options {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 100 * time.Millisecond
	}
	if o.segmentBytes <= 0 {
		o.segmentBytes = 4 << 20
	}
	return o
}
