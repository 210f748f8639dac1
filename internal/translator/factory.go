package translator

import (
	"fmt"

	"cmtk/internal/cmi"
	"cmtk/internal/rid"
	"cmtk/internal/ris/bibstore"
	"cmtk/internal/ris/filestore"
	"cmtk/internal/ris/kvstore"
	"cmtk/internal/ris/relstore"
	"cmtk/internal/ris/server"
	"cmtk/internal/vclock"
)

// LocalStores supplies in-process sources for CM-RIDs whose addr is
// "local" (tests, examples, the benchmark harness).
type LocalStores struct {
	Rel  *relstore.DB
	KV   *kvstore.Store
	File *filestore.Store
	Bib  *bibstore.Store
}

// Open builds the right CM-Translator for a CM-RID: for network configs
// it dials the address with the matching dialect client; for local
// configs it adapts the supplied in-process store.  This is the
// "configure a standard CM-Translator to the particular underlying data
// source" step of Section 4.1.
func Open(cfg *rid.Config, local *LocalStores, clock vclock.Clock) (cmi.Interface, error) {
	switch cfg.Kind {
	case rid.KindRel:
		var src RelSource
		if cfg.Local() {
			if local == nil || local.Rel == nil {
				return nil, fmt.Errorf("translator: local relstore for site %s not supplied", cfg.Site)
			}
			src = local.Rel
		} else {
			c, err := server.DialRel(cfg.Addr)
			if err != nil {
				return nil, err
			}
			src = c
		}
		return NewRel(cfg, src, clock)
	case rid.KindKV:
		var src KVSource
		if cfg.Local() {
			if local == nil || local.KV == nil {
				return nil, fmt.Errorf("translator: local kvstore for site %s not supplied", cfg.Site)
			}
			src = LocalKV{local.KV}
		} else {
			c, err := server.DialKV(cfg.Addr)
			if err != nil {
				return nil, err
			}
			src = c
		}
		return NewKV(cfg, src, clock)
	case rid.KindFile:
		var src FileSource
		if cfg.Local() {
			if local == nil || local.File == nil {
				return nil, fmt.Errorf("translator: local filestore for site %s not supplied", cfg.Site)
			}
			src = local.File
		} else {
			c, err := server.DialFile(cfg.Addr)
			if err != nil {
				return nil, err
			}
			src = c
		}
		return NewFile(cfg, src, clock)
	case rid.KindBib:
		var src BibSource
		if cfg.Local() {
			if local == nil || local.Bib == nil {
				return nil, fmt.Errorf("translator: local bibstore for site %s not supplied", cfg.Site)
			}
			src = LocalBib{local.Bib}
		} else {
			c, err := server.DialBib(cfg.Addr)
			if err != nil {
				return nil, err
			}
			src = &RemoteBib{GetFn: c.Get, KeysFn: c.Keys}
		}
		return NewBib(cfg, src, clock)
	default:
		return nil, fmt.Errorf("translator: unknown source kind %q", cfg.Kind)
	}
}
