package translator

import (
	"errors"
	"fmt"

	"cmtk/internal/cmi"
	"cmtk/internal/data"
	"cmtk/internal/rid"
	"cmtk/internal/ris"
	"cmtk/internal/rule"
	"cmtk/internal/vclock"
)

// FileSource is the native flat-file interface; both *filestore.Store and
// *server.FileClient satisfy it.
type FileSource interface {
	Read(file, key string) (string, error)
	Write(file, key, value string) error
	Delete(file, key string) error
	Snapshot(file string) (map[string]string, error)
}

// File is the CM-Translator for flat-file sources.  File sources have no
// native notification: Subscribe returns ErrUnsupported, which pushes the
// deployment toward a polling strategy, as in the Section 4.2 interface
// change and the Section 5 discussion of simulating notification by
// polling.
type File struct {
	failureHub
	cfg *rid.Config
	src FileSource
}

// NewFile builds a flat-file translator.
func NewFile(cfg *rid.Config, src FileSource, clock vclock.Clock) (*File, error) {
	if cfg.Kind != rid.KindFile {
		return nil, fmt.Errorf("translator: config kind %q is not %s", cfg.Kind, rid.KindFile)
	}
	return &File{failureHub: newFailureHub(cfg.Site, clock), cfg: cfg, src: src}, nil
}

// Site implements cmi.Interface.
func (t *File) Site() string { return t.cfg.Site }

// Statements implements cmi.Interface.
func (t *File) Statements() []rule.Rule { return t.cfg.Statements }

func (t *File) binding(base string) (*rid.ItemBinding, error) {
	b, ok := t.cfg.Binding(base)
	if !ok {
		return nil, fmt.Errorf("translator: no binding for item %s at site %s", base, t.cfg.Site)
	}
	return b, nil
}

// Read implements cmi.Interface: the item's first argument is the record
// key within the bound file.
func (t *File) Read(item data.ItemName) (data.Value, bool, error) {
	t.countOp("read")
	b, err := t.binding(item.Base)
	if err != nil {
		return data.NullValue, false, t.report("read", err)
	}
	key, err := keyString(item)
	if err != nil {
		return data.NullValue, false, t.report("read", err)
	}
	raw, err := t.src.Read(b.File, key)
	if err != nil {
		if errors.Is(err, ris.ErrNotFound) {
			return data.NullValue, false, nil
		}
		return data.NullValue, false, t.report("read", err)
	}
	v, err := convert(raw, b.Type)
	if err != nil {
		return data.NullValue, false, t.report("read", err)
	}
	return v, true, nil
}

// Write implements cmi.Interface.
func (t *File) Write(item data.ItemName, v data.Value) error {
	t.countOp("write")
	b, err := t.binding(item.Base)
	if err != nil {
		return t.report("write", err)
	}
	key, err := keyString(item)
	if err != nil {
		return t.report("write", err)
	}
	if v.IsNull() {
		return t.report("write", t.src.Delete(b.File, key))
	}
	return t.report("write", t.src.Write(b.File, key, render(v)))
}

// Subscribe implements cmi.Interface; flat files cannot notify.
func (t *File) Subscribe(base string, fn cmi.NotifyFunc) (func(), error) {
	t.countOp("notify")
	return nil, fmt.Errorf("translator: flat-file source at %s cannot notify: %w", t.cfg.Site, ris.ErrUnsupported)
}

// List implements cmi.Interface.
func (t *File) List(base string) ([]data.ItemName, error) {
	t.countOp("list")
	b, err := t.binding(base)
	if err != nil {
		return nil, t.report("read", err)
	}
	recs, err := t.src.Snapshot(b.File)
	if err != nil {
		return nil, t.report("read", err)
	}
	keys := make([]string, 0, len(recs))
	for k := range recs {
		keys = append(keys, k)
	}
	// Deterministic order.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	out := make([]data.ItemName, 0, len(keys))
	for _, k := range keys {
		out = append(out, data.Item(base, data.NewString(k)))
	}
	return out, nil
}

// Close implements cmi.Interface.
func (t *File) Close() error { return nil }

var _ cmi.Interface = (*File)(nil)
