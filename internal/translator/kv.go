package translator

import (
	"errors"
	"fmt"
	"sync"

	"cmtk/internal/cmi"
	"cmtk/internal/data"
	"cmtk/internal/rid"
	"cmtk/internal/ris"
	"cmtk/internal/ris/kvstore"
	"cmtk/internal/rule"
	"cmtk/internal/vclock"
)

// KVSource is the native directory interface the translator consumes.
// *server.KVClient satisfies it directly; wrap a local *kvstore.Store with
// LocalKV.
type KVSource interface {
	Get(entity, attr string) (string, error)
	Set(entity, attr, value string) error
	Del(entity, attr string) error
	Entities() ([]string, error)
	Watch(fn func(kvstore.Change)) (func(), error)
}

// LocalKV adapts an in-process store to KVSource.
type LocalKV struct{ S *kvstore.Store }

// Get implements KVSource.
func (l LocalKV) Get(entity, attr string) (string, error) { return l.S.Get(entity, attr) }

// Set implements KVSource.
func (l LocalKV) Set(entity, attr, value string) error { return l.S.Set(entity, attr, value) }

// Del implements KVSource.
func (l LocalKV) Del(entity, attr string) error { return l.S.Del(entity, attr) }

// Entities implements KVSource.
func (l LocalKV) Entities() ([]string, error) { return l.S.Entities(), nil }

// Watch implements KVSource.
func (l LocalKV) Watch(fn func(kvstore.Change)) (func(), error) { return l.S.Watch(fn) }

// KV is the CM-Translator for directory (whois/lookup) sources.
type KV struct {
	failureHub
	cfg     *rid.Config
	src     KVSource
	mu      sync.Mutex
	cancels []func()
}

// NewKV builds a directory translator.
func NewKV(cfg *rid.Config, src KVSource, clock vclock.Clock) (*KV, error) {
	if cfg.Kind != rid.KindKV {
		return nil, fmt.Errorf("translator: config kind %q is not %s", cfg.Kind, rid.KindKV)
	}
	return &KV{failureHub: newFailureHub(cfg.Site, clock), cfg: cfg, src: src}, nil
}

// Site implements cmi.Interface.
func (t *KV) Site() string { return t.cfg.Site }

// Statements implements cmi.Interface.
func (t *KV) Statements() []rule.Rule { return t.cfg.Statements }

func (t *KV) binding(base string) (*rid.ItemBinding, error) {
	b, ok := t.cfg.Binding(base)
	if !ok {
		return nil, fmt.Errorf("translator: no binding for item %s at site %s", base, t.cfg.Site)
	}
	return b, nil
}

// Read implements cmi.Interface: the item's first argument is the entity,
// the binding names the attribute.
func (t *KV) Read(item data.ItemName) (data.Value, bool, error) {
	t.countOp("read")
	b, err := t.binding(item.Base)
	if err != nil {
		return data.NullValue, false, t.report("read", err)
	}
	entity, err := keyString(item)
	if err != nil {
		return data.NullValue, false, t.report("read", err)
	}
	raw, err := t.src.Get(entity, b.Attr)
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
func (t *KV) Write(item data.ItemName, v data.Value) error {
	t.countOp("write")
	b, err := t.binding(item.Base)
	if err != nil {
		return t.report("write", err)
	}
	entity, err := keyString(item)
	if err != nil {
		return t.report("write", err)
	}
	if v.IsNull() {
		err := t.src.Del(entity, b.Attr)
		if errors.Is(err, ris.ErrNotFound) {
			return nil
		}
		return t.report("write", err)
	}
	return t.report("write", t.src.Set(entity, b.Attr, render(v)))
}

// Subscribe implements cmi.Interface using the store's native change
// stream, filtered to the bound attribute.
func (t *KV) Subscribe(base string, fn cmi.NotifyFunc) (func(), error) {
	t.countOp("notify")
	b, err := t.binding(base)
	if err != nil {
		return nil, t.report("notify", err)
	}
	cancel, err := t.src.Watch(func(c kvstore.Change) {
		if c.Attr != b.Attr {
			return
		}
		item := data.Item(base, data.NewString(c.Entity))
		var oldV, newV data.Value
		if c.OldOK {
			if v, err := convert(c.Old, b.Type); err == nil {
				oldV = v
			}
		}
		if c.NewOK {
			v, err := convert(c.New, b.Type)
			if err != nil {
				t.report("notify", err)
				return
			}
			newV = v
		}
		if !notifyCondPasses(b.NotifyCond, oldV, newV) {
			return
		}
		fn(item, oldV, newV)
	})
	if err != nil {
		return nil, t.report("notify", err)
	}
	t.mu.Lock()
	t.cancels = append(t.cancels, cancel)
	t.mu.Unlock()
	return cancel, nil
}

// List implements cmi.Interface: entities that carry the bound attribute.
func (t *KV) List(base string) ([]data.ItemName, error) {
	t.countOp("list")
	b, err := t.binding(base)
	if err != nil {
		return nil, t.report("read", err)
	}
	ents, err := t.src.Entities()
	if err != nil {
		return nil, t.report("read", err)
	}
	var out []data.ItemName
	for _, e := range ents {
		if _, err := t.src.Get(e, b.Attr); err == nil {
			out = append(out, data.Item(base, data.NewString(e)))
		}
	}
	return out, nil
}

// Close implements cmi.Interface.
func (t *KV) Close() error {
	t.mu.Lock()
	cancels := t.cancels
	t.cancels = nil
	t.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	return nil
}

var _ cmi.Interface = (*KV)(nil)
