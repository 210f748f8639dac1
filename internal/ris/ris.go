// Package ris defines what all Raw Information Sources (Section 4.1) have
// in common: a kind, a capability set, and an error taxonomy that the
// CM-Translators map onto metric and logical interface failures
// (Section 5).
//
// Deliberately, there is no common data-access interface here: the whole
// point of the paper's architecture is that each RIS exposes its own
// native interface (SQL text for relational stores, file operations for
// flat files, text commands for directory servers), and the CM-Translator
// for each kind adapts that native interface — configured by a CM-RID —
// to the uniform CM-Interface.
package ris

import (
	"errors"
	"fmt"
)

// Capability flags describe what a source's native interface can do.  The
// heterogeneity of capability sets across sources is what forces the
// strategy choice in Section 4.2 (notify-based propagation vs. polling).
type Capability uint

// Capability bits.
const (
	CapRead Capability = 1 << iota
	CapWrite
	CapDelete
	CapNotify // native change hooks (triggers, watch callbacks)
	CapQuery  // content queries beyond single-item reads
)

// Has reports whether all bits in want are present.
func (c Capability) Has(want Capability) bool { return c&want == want }

// String renders e.g. "read|write|notify".
func (c Capability) String() string {
	names := []struct {
		bit  Capability
		name string
	}{
		{CapRead, "read"}, {CapWrite, "write"}, {CapDelete, "delete"},
		{CapNotify, "notify"}, {CapQuery, "query"},
	}
	out := ""
	for _, n := range names {
		if c.Has(n.bit) {
			if out != "" {
				out += "|"
			}
			out += n.name
		}
	}
	if out == "" {
		return "none"
	}
	return out
}

// Sentinel errors for the native interfaces.  Translators inspect these
// (and Transient wrappers) to classify failures.
var (
	// ErrReadOnly reports a mutation attempted on a read-only source.
	ErrReadOnly = errors.New("ris: source is read-only")
	// ErrNotFound reports a missing item, row or record.
	ErrNotFound = errors.New("ris: not found")
	// ErrUnsupported reports an operation outside the source's capability set.
	ErrUnsupported = errors.New("ris: operation not supported")
	// ErrUnavailable reports that the source cannot be reached at all; the
	// translator maps this to a logical failure of the interface.
	ErrUnavailable = errors.New("ris: source unavailable")
)

// TransientError wraps an error that is expected to clear on retry (an
// overloaded or briefly crashed source).  Translators map it to a metric
// failure: the interface obligation will be met, but late.
type TransientError struct{ Err error }

// Error implements error.
func (e *TransientError) Error() string { return fmt.Sprintf("ris: transient: %v", e.Err) }

// Unwrap exposes the wrapped error.
func (e *TransientError) Unwrap() error { return e.Err }

// Transient wraps err as transient.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &TransientError{Err: err}
}

// IsTransient reports whether err is (or wraps) a transient failure.
func IsTransient(err error) bool {
	var t *TransientError
	return errors.As(err, &t)
}
