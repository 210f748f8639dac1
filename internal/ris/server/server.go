// Package server exposes each Raw Information Source kind over TCP in its
// own dialect, and provides matching clients.  The dialects deliberately
// differ per kind — SQL text for relational stores, entity/attribute
// commands for directory servers, file operations for flat files, author
// queries for bibliographies — because presenting heterogeneous native
// interfaces (the RISIs of Figure 2) is the premise of the paper's
// architecture.  Only the framing (package wire) is shared.
package server

import (
	"fmt"
	"strconv"
	"sync"

	"cmtk/internal/data"
	"cmtk/internal/ris"
	"cmtk/internal/ris/bibstore"
	"cmtk/internal/ris/filestore"
	"cmtk/internal/ris/kvstore"
	"cmtk/internal/ris/relstore"
	"cmtk/internal/wire"
)

// ---- relational dialect ----

// relHandler serves a relstore.DB.
type relHandler struct{ db *relstore.DB }

// ServeRel serves db over TCP at addr (":0" for ephemeral).
func ServeRel(addr string, db *relstore.DB) (*wire.Server, error) {
	return wire.Serve(addr, instrument("rel", relHandler{db}))
}

func (h relHandler) NewSession(push func(wire.Message) error) (wire.Session, error) {
	return &relSession{db: h.db, push: push, watches: map[string]func(){}}, nil
}

type relSession struct {
	db      *relstore.DB
	push    func(wire.Message) error
	mu      sync.Mutex
	watches map[string]func()
}

func (s *relSession) Handle(m wire.Message) wire.Message {
	switch m.Type {
	case "sql":
		res, err := s.db.Exec(m.Field("q"))
		if err != nil {
			return wire.ErrorReply(m, err)
		}
		reply := wire.Reply(m)
		reply.Cols = res.Columns
		reply.F = map[string]string{"affected": strconv.Itoa(res.Affected)}
		for _, row := range res.Rows {
			reply.Rows = append(reply.Rows, encodeRow(row))
		}
		return reply
	case "watch":
		table := m.Field("table")
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, dup := s.watches[table]; dup {
			return wire.ErrorReply(m, fmt.Errorf("relstore: table %s already watched on this connection", table))
		}
		cancel, err := s.db.RegisterTrigger(table, func(op relstore.TriggerOp, tbl string, old, new relstore.Row) {
			ev := wire.Message{Type: "trigger", F: map[string]string{"op": op.String(), "table": tbl}}
			if old != nil {
				ev.Rows = append(ev.Rows, encodeRow(old))
				ev.F["hasold"] = "1"
			} else {
				ev.Rows = append(ev.Rows, nil)
			}
			if new != nil {
				ev.Rows = append(ev.Rows, encodeRow(new))
				ev.F["hasnew"] = "1"
			} else {
				ev.Rows = append(ev.Rows, nil)
			}
			s.push(ev) // best effort; a dead conn ends the session anyway
		})
		if err != nil {
			return wire.ErrorReply(m, err)
		}
		s.watches[table] = cancel
		return wire.Reply(m)
	case "unwatch":
		table := m.Field("table")
		s.mu.Lock()
		defer s.mu.Unlock()
		cancel, ok := s.watches[table]
		if !ok {
			return wire.ErrorReply(m, fmt.Errorf("relstore: table %s not watched: %w", table, ris.ErrNotFound))
		}
		cancel()
		delete(s.watches, table)
		return wire.Reply(m)
	default:
		return wire.ErrorReply(m, fmt.Errorf("relstore: unknown request %q: %w", m.Type, ris.ErrUnsupported))
	}
}

func (s *relSession) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, cancel := range s.watches {
		cancel()
	}
	s.watches = map[string]func(){}
}

func encodeRow(r relstore.Row) []string {
	out := make([]string, len(r))
	for i, v := range r {
		out[i] = v.String()
	}
	return out
}

func decodeRow(r []string) (relstore.Row, error) {
	out := make(relstore.Row, len(r))
	for i, s := range r {
		v, err := data.ParseLiteral(s)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// ---- key-value (whois) dialect ----

type kvHandler struct{ s *kvstore.Store }

// ServeKV serves a directory store over TCP.
func ServeKV(addr string, s *kvstore.Store) (*wire.Server, error) {
	return wire.Serve(addr, instrument("kv", kvHandler{s}))
}

func (h kvHandler) NewSession(push func(wire.Message) error) (wire.Session, error) {
	return &kvSession{s: h.s, push: push}, nil
}

type kvSession struct {
	s      *kvstore.Store
	push   func(wire.Message) error
	mu     sync.Mutex
	cancel func()
}

func (s *kvSession) Handle(m wire.Message) wire.Message {
	switch m.Type {
	case "get":
		v, err := s.s.Get(m.Field("entity"), m.Field("attr"))
		if err != nil {
			return wire.ErrorReply(m, err)
		}
		return wire.Reply(m).WithField("value", v)
	case "set":
		if err := s.s.Set(m.Field("entity"), m.Field("attr"), m.Field("value")); err != nil {
			return wire.ErrorReply(m, err)
		}
		return wire.Reply(m)
	case "del":
		if err := s.s.Del(m.Field("entity"), m.Field("attr")); err != nil {
			return wire.ErrorReply(m, err)
		}
		return wire.Reply(m)
	case "entities":
		reply := wire.Reply(m)
		reply.Cols = s.s.Entities()
		return reply
	case "watch":
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.cancel != nil {
			return wire.ErrorReply(m, fmt.Errorf("kvstore: already watching on this connection"))
		}
		cancel, err := s.s.Watch(func(c kvstore.Change) {
			s.push(wire.Message{Type: "change", F: map[string]string{
				"entity": c.Entity, "attr": c.Attr,
				"old": c.Old, "new": c.New,
				"oldok": boolStr(c.OldOK), "newok": boolStr(c.NewOK),
			}})
		})
		if err != nil {
			return wire.ErrorReply(m, err)
		}
		s.cancel = cancel
		return wire.Reply(m)
	default:
		return wire.ErrorReply(m, fmt.Errorf("kvstore: unknown request %q: %w", m.Type, ris.ErrUnsupported))
	}
}

func (s *kvSession) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cancel != nil {
		s.cancel()
		s.cancel = nil
	}
}

func boolStr(b bool) string {
	if b {
		return "1"
	}
	return ""
}

// ---- flat-file dialect ----

type fileHandler struct{ s *filestore.Store }

// ServeFile serves a filestore over TCP.
func ServeFile(addr string, s *filestore.Store) (*wire.Server, error) {
	return wire.Serve(addr, instrument("file", fileHandler{s}))
}

func (h fileHandler) NewSession(func(wire.Message) error) (wire.Session, error) {
	return fileSession{h.s}, nil
}

type fileSession struct{ s *filestore.Store }

func (s fileSession) Handle(m wire.Message) wire.Message {
	switch m.Type {
	case "read":
		v, err := s.s.Read(m.Field("file"), m.Field("key"))
		if err != nil {
			return wire.ErrorReply(m, err)
		}
		return wire.Reply(m).WithField("value", v)
	case "write":
		if err := s.s.Write(m.Field("file"), m.Field("key"), m.Field("value")); err != nil {
			return wire.ErrorReply(m, err)
		}
		return wire.Reply(m)
	case "delete":
		if err := s.s.Delete(m.Field("file"), m.Field("key")); err != nil {
			return wire.ErrorReply(m, err)
		}
		return wire.Reply(m)
	case "snapshot":
		recs, err := s.s.Snapshot(m.Field("file"))
		if err != nil {
			return wire.ErrorReply(m, err)
		}
		reply := wire.Reply(m)
		reply.F = recs
		return reply
	default:
		return wire.ErrorReply(m, fmt.Errorf("filestore: unknown request %q: %w", m.Type, ris.ErrUnsupported))
	}
}

func (fileSession) Close() {}

// ---- bibliographic dialect ----

type bibHandler struct{ s *bibstore.Store }

// ServeBib serves a bibliography over TCP.
func ServeBib(addr string, s *bibstore.Store) (*wire.Server, error) {
	return wire.Serve(addr, instrument("bib", bibHandler{s}))
}

func (h bibHandler) NewSession(func(wire.Message) error) (wire.Session, error) {
	return bibSession{h.s}, nil
}

type bibSession struct{ s *bibstore.Store }

func encodeRecord(r bibstore.Record) []string {
	return []string{r.Key, r.Author, r.Title, strconv.Itoa(r.Year), r.Venue}
}

func decodeRecord(row []string) (bibstore.Record, error) {
	if len(row) != 5 {
		return bibstore.Record{}, fmt.Errorf("bibstore: bad record row of %d fields", len(row))
	}
	year, err := strconv.Atoi(row[3])
	if err != nil {
		return bibstore.Record{}, fmt.Errorf("bibstore: bad year %q", row[3])
	}
	return bibstore.Record{Key: row[0], Author: row[1], Title: row[2], Year: year, Venue: row[4]}, nil
}

func (s bibSession) Handle(m wire.Message) wire.Message {
	switch m.Type {
	case "get":
		r, err := s.s.Get(m.Field("key"))
		if err != nil {
			return wire.ErrorReply(m, err)
		}
		reply := wire.Reply(m)
		reply.Rows = [][]string{encodeRecord(r)}
		return reply
	case "keys":
		reply := wire.Reply(m)
		reply.Cols = s.s.Keys()
		return reply
	default:
		return wire.ErrorReply(m, fmt.Errorf("bibstore: unknown request %q: %w", m.Type, ris.ErrUnsupported))
	}
}

func (bibSession) Close() {}
