package translator

import (
	"errors"
	"fmt"

	"cmtk/internal/cmi"
	"cmtk/internal/data"
	"cmtk/internal/rid"
	"cmtk/internal/ris"
	"cmtk/internal/ris/bibstore"
	"cmtk/internal/rule"
	"cmtk/internal/vclock"
)

// BibSource is the native bibliographic query interface; both a local
// *bibstore.Store and a remote *server.BibClient satisfy it.
type BibSource interface {
	Get(key string) (bibstore.Record, error)
	Keys() []string
}

// LocalBib adapts an in-process bibliography; it is the identity — the
// store's methods already match — but gives deployments a uniform
// constructor shape.
type LocalBib struct{ S *bibstore.Store }

// Get implements BibSource.
func (l LocalBib) Get(key string) (bibstore.Record, error) { return l.S.Get(key) }

// Keys implements BibSource.
func (l LocalBib) Keys() []string { return l.S.Keys() }

// RemoteBib adapts a client whose methods return errors (network) to the
// BibSource shape; query errors surface as empty results after being
// reported to the failure hub the translator installs.
type RemoteBib struct {
	GetFn  func(string) (bibstore.Record, error)
	KeysFn func() ([]string, error)
	onErr  func(error)
}

// Get implements BibSource.
func (r *RemoteBib) Get(key string) (bibstore.Record, error) { return r.GetFn(key) }

// Keys implements BibSource.
func (r *RemoteBib) Keys() []string {
	keys, err := r.KeysFn()
	if err != nil && r.onErr != nil {
		r.onErr(err)
	}
	return keys
}

// Bib is the CM-Translator for read-only bibliographic sources.  Items
// are record fields keyed by citation key: paper("w96") with field
// "title" reads record w96's title.  All mutation attempts return
// ErrReadOnly; there is no notification — over this source the CM can
// only monitor, which is the Section 6.3 scenario.
type Bib struct {
	failureHub
	cfg *rid.Config
	src BibSource
}

// NewBib builds a bibliographic translator.
func NewBib(cfg *rid.Config, src BibSource, clock vclock.Clock) (*Bib, error) {
	if cfg.Kind != rid.KindBib {
		return nil, fmt.Errorf("translator: config kind %q is not %s", cfg.Kind, rid.KindBib)
	}
	t := &Bib{failureHub: newFailureHub(cfg.Site, clock), cfg: cfg, src: src}
	if rb, ok := src.(*RemoteBib); ok {
		rb.onErr = func(err error) { t.report("read", err) }
	}
	return t, nil
}

// Site implements cmi.Interface.
func (t *Bib) Site() string { return t.cfg.Site }

// Statements implements cmi.Interface.
func (t *Bib) Statements() []rule.Rule { return t.cfg.Statements }

// Read implements cmi.Interface.
func (t *Bib) Read(item data.ItemName) (data.Value, bool, error) {
	t.countOp("read")
	b, ok := t.cfg.Binding(item.Base)
	if !ok {
		return data.NullValue, false, t.report("read", fmt.Errorf("translator: no binding for item %s", item.Base))
	}
	key, err := keyString(item)
	if err != nil {
		return data.NullValue, false, t.report("read", err)
	}
	rec, err := t.src.Get(key)
	if err != nil {
		if errors.Is(err, ris.ErrNotFound) {
			return data.NullValue, false, nil
		}
		return data.NullValue, false, t.report("read", err)
	}
	switch b.Field {
	case "title":
		return data.NewString(rec.Title), true, nil
	case "author":
		return data.NewString(rec.Author), true, nil
	case "venue":
		return data.NewString(rec.Venue), true, nil
	case "year":
		return data.NewInt(int64(rec.Year)), true, nil
	case "key":
		return data.NewString(rec.Key), true, nil
	default:
		return data.NullValue, false, t.report("read", fmt.Errorf("translator: unknown bib field %q", b.Field))
	}
}

// Write implements cmi.Interface; bibliographies are read-only.
func (t *Bib) Write(item data.ItemName, v data.Value) error {
	t.countOp("write")
	return t.report("write", fmt.Errorf("translator: bibliography at %s: %w", t.cfg.Site, ris.ErrReadOnly))
}

// Subscribe implements cmi.Interface; bibliographies cannot notify.
func (t *Bib) Subscribe(base string, fn cmi.NotifyFunc) (func(), error) {
	t.countOp("notify")
	return nil, fmt.Errorf("translator: bibliography at %s cannot notify: %w", t.cfg.Site, ris.ErrUnsupported)
}

// List implements cmi.Interface: all citation keys.
func (t *Bib) List(base string) ([]data.ItemName, error) {
	t.countOp("list")
	if _, ok := t.cfg.Binding(base); !ok {
		return nil, t.report("read", fmt.Errorf("translator: no binding for item %s", base))
	}
	keys := t.src.Keys()
	out := make([]data.ItemName, 0, len(keys))
	for _, k := range keys {
		out = append(out, data.Item(base, data.NewString(k)))
	}
	return out, nil
}

// Close implements cmi.Interface.
func (t *Bib) Close() error { return nil }

var _ cmi.Interface = (*Bib)(nil)
