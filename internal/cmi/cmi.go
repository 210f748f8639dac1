// Package cmi defines the CM-Interface (Figure 2): the uniform interface
// every CM-Translator presents to the CM-Shells, regardless of how exotic
// the underlying Raw Information Source is.  A shell never sees SQL, file
// formats or directory protocols — only items, values, notifications, the
// interface statements the translator promises to honor, and failures
// classified as metric or logical (Section 5).
package cmi

import (
	"fmt"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/ris"
	"cmtk/internal/rule"
)

// FailureKind classifies interface failures per Section 5.
type FailureKind int

// Failure kinds.
const (
	// FailMetric: the interface's actions will happen, but not within the
	// promised time bound (overload, brief crash with recovery).  Metric
	// guarantees are invalidated; non-metric guarantees survive.
	FailMetric FailureKind = iota
	// FailLogical: the interface statements no longer hold at all
	// (catastrophic failure).  All guarantees involving the site are
	// invalid until the system is reset.
	FailLogical
)

func (k FailureKind) String() string {
	if k == FailMetric {
		return "metric"
	}
	return "logical"
}

// Failure describes one detected interface failure.
type Failure struct {
	Kind FailureKind
	Site string
	When time.Time
	Op   string // operation that surfaced it: "read", "write", "notify"
	Err  error
}

func (f Failure) String() string {
	return fmt.Sprintf("%s failure at site %s during %s: %v", f.Kind, f.Site, f.Op, f.Err)
}

// Classify maps a native-interface error to a failure kind using the ris
// error taxonomy: transient errors are metric failures, everything else is
// logical.
func Classify(err error) FailureKind {
	if ris.IsTransient(err) {
		return FailMetric
	}
	return FailLogical
}

// NotifyFunc receives a spontaneous-change notification for one item.
// old is null for creations; new is null for deletions.
type NotifyFunc func(item data.ItemName, old, new data.Value)

// Interface is the uniform CM-Interface for one site's items.  What a
// site can do is what its CM-RID's interface statements say
// (Statements); translator.CapsFromStatements derives the capability set
// from them, so there is no second, runtime answer to diverge from it.
type Interface interface {
	// Site names the site this translator serves.
	Site() string
	// Statements returns the interface statements (Section 3.1) this
	// translator is configured to honor, in the rule language.  The
	// toolkit's strategy suggestion consults these.
	Statements() []rule.Rule
	// Read returns the current value of an item; exists is false when the
	// item is absent (the E(X) predicate).
	Read(item data.ItemName) (v data.Value, exists bool, err error)
	// Write asks the source to perform item ← v.  Writing null deletes
	// the item.  Sources without a write interface return ErrReadOnly.
	Write(item data.ItemName, v data.Value) error
	// Subscribe requests notification of spontaneous changes to an item
	// family.  Sources without native notification return ErrUnsupported
	// — the strategy layer then falls back to polling, as in Section 4.2.
	Subscribe(base string, fn NotifyFunc) (cancel func(), err error)
	// List enumerates the current members of an item family.
	List(base string) ([]data.ItemName, error)
	// OnFailure registers a callback invoked whenever the translator
	// detects an interface failure.  Multiple callbacks accumulate.
	OnFailure(fn func(Failure))
	// Close releases subscriptions and connections.
	Close() error
}
