package server

import (
	"fmt"
	"strconv"
	"sync"

	"cmtk/internal/ris/bibstore"
	"cmtk/internal/ris/kvstore"
	"cmtk/internal/ris/relstore"
	"cmtk/internal/wire"
)

// RelClient speaks the relational dialect; it mirrors the relstore native
// API so CM-Translators work identically against a local engine or a
// remote server.
type RelClient struct {
	c  *wire.Client
	mu sync.Mutex
	// watchers by table; the server pushes one trigger stream per session.
	watchers map[string][]relstore.Trigger
}

// DialRel connects to a ServeRel address.
func DialRel(addr string, opts ...wire.DialOption) (*RelClient, error) {
	rc := &RelClient{watchers: map[string][]relstore.Trigger{}}
	c, err := wire.Dial(addr, rc.onPush, opts...)
	if err != nil {
		return nil, err
	}
	rc.c = c
	return rc, nil
}

func (rc *RelClient) onPush(m wire.Message) {
	if m.Type != "trigger" || len(m.Rows) != 2 {
		return
	}
	var op relstore.TriggerOp
	switch m.Field("op") {
	case "INSERT":
		op = relstore.TrigInsert
	case "UPDATE":
		op = relstore.TrigUpdate
	case "DELETE":
		op = relstore.TrigDelete
	default:
		return
	}
	var old, new relstore.Row
	if m.Field("hasold") != "" {
		old, _ = decodeRow(m.Rows[0])
	}
	if m.Field("hasnew") != "" {
		new, _ = decodeRow(m.Rows[1])
	}
	table := m.Field("table")
	rc.mu.Lock()
	fns := append([]relstore.Trigger(nil), rc.watchers[table]...)
	rc.mu.Unlock()
	for _, fn := range fns {
		fn(op, table, old, new)
	}
}

// Exec runs one SQL statement remotely.
func (rc *RelClient) Exec(sql string) (relstore.Result, error) {
	reply, err := rc.c.Do(wire.Message{Type: "sql", F: map[string]string{"q": sql}})
	if err != nil {
		return relstore.Result{}, err
	}
	res := relstore.Result{Columns: reply.Cols}
	if a := reply.Field("affected"); a != "" {
		res.Affected, _ = strconv.Atoi(a)
	}
	for _, row := range reply.Rows {
		r, err := decodeRow(row)
		if err != nil {
			return relstore.Result{}, fmt.Errorf("server: decoding result row: %w", err)
		}
		res.Rows = append(res.Rows, r)
	}
	return res, nil
}

// RegisterTrigger subscribes to a table's trigger stream.
func (rc *RelClient) RegisterTrigger(table string, fn relstore.Trigger) (func(), error) {
	rc.mu.Lock()
	first := len(rc.watchers[table]) == 0
	rc.watchers[table] = append(rc.watchers[table], fn)
	idx := len(rc.watchers[table]) - 1
	rc.mu.Unlock()
	if first {
		if _, err := rc.c.Do(wire.Message{Type: "watch", F: map[string]string{"table": table}}); err != nil {
			rc.mu.Lock()
			rc.watchers[table] = rc.watchers[table][:idx]
			rc.mu.Unlock()
			return nil, err
		}
	}
	return func() {
		rc.mu.Lock()
		fns := rc.watchers[table]
		if idx < len(fns) {
			fns[idx] = nil // tombstone; keep indices stable
		}
		empty := true
		for _, f := range fns {
			if f != nil {
				empty = false
			}
		}
		if empty {
			delete(rc.watchers, table)
		}
		rc.mu.Unlock()
		if empty {
			rc.c.Do(wire.Message{Type: "unwatch", F: map[string]string{"table": table}})
		}
	}, nil
}

// Close closes the connection.
func (rc *RelClient) Close() error { return rc.c.Close() }

// KVClient speaks the directory dialect.
type KVClient struct {
	c  *wire.Client
	mu sync.Mutex
	ws []func(kvstore.Change)
}

// DialKV connects to a ServeKV address.
func DialKV(addr string, opts ...wire.DialOption) (*KVClient, error) {
	kc := &KVClient{}
	c, err := wire.Dial(addr, kc.onPush, opts...)
	if err != nil {
		return nil, err
	}
	kc.c = c
	return kc, nil
}

func (kc *KVClient) onPush(m wire.Message) {
	if m.Type != "change" {
		return
	}
	ch := kvstore.Change{
		Entity: m.Field("entity"), Attr: m.Field("attr"),
		Old: m.Field("old"), New: m.Field("new"),
		OldOK: m.Field("oldok") != "", NewOK: m.Field("newok") != "",
	}
	kc.mu.Lock()
	fns := append([]func(kvstore.Change){}, kc.ws...)
	kc.mu.Unlock()
	for _, fn := range fns {
		if fn != nil {
			fn(ch)
		}
	}
}

// Get fetches one attribute.
func (kc *KVClient) Get(entity, attr string) (string, error) {
	reply, err := kc.c.Do(wire.Message{Type: "get", F: map[string]string{"entity": entity, "attr": attr}})
	if err != nil {
		return "", err
	}
	return reply.Field("value"), nil
}

// Set writes one attribute.
func (kc *KVClient) Set(entity, attr, value string) error {
	_, err := kc.c.Do(wire.Message{Type: "set", F: map[string]string{"entity": entity, "attr": attr, "value": value}})
	return err
}

// Del removes one attribute.
func (kc *KVClient) Del(entity, attr string) error {
	_, err := kc.c.Do(wire.Message{Type: "del", F: map[string]string{"entity": entity, "attr": attr}})
	return err
}

// Entities lists entity names.
func (kc *KVClient) Entities() ([]string, error) {
	reply, err := kc.c.Do(wire.Message{Type: "entities"})
	if err != nil {
		return nil, err
	}
	return reply.Cols, nil
}

// Watch subscribes to the change stream.
func (kc *KVClient) Watch(fn func(kvstore.Change)) (func(), error) {
	kc.mu.Lock()
	first := len(kc.ws) == 0
	kc.ws = append(kc.ws, fn)
	idx := len(kc.ws) - 1
	kc.mu.Unlock()
	if first {
		if _, err := kc.c.Do(wire.Message{Type: "watch"}); err != nil {
			kc.mu.Lock()
			kc.ws = kc.ws[:idx]
			kc.mu.Unlock()
			return nil, err
		}
	}
	return func() {
		kc.mu.Lock()
		if idx < len(kc.ws) {
			kc.ws[idx] = nil
		}
		kc.mu.Unlock()
	}, nil
}

// Close closes the connection.
func (kc *KVClient) Close() error { return kc.c.Close() }

// FileClient speaks the flat-file dialect.
type FileClient struct{ c *wire.Client }

// DialFile connects to a ServeFile address.
func DialFile(addr string, opts ...wire.DialOption) (*FileClient, error) {
	c, err := wire.Dial(addr, nil, opts...)
	if err != nil {
		return nil, err
	}
	return &FileClient{c: c}, nil
}

// Read fetches one record.
func (fc *FileClient) Read(file, key string) (string, error) {
	reply, err := fc.c.Do(wire.Message{Type: "read", F: map[string]string{"file": file, "key": key}})
	if err != nil {
		return "", err
	}
	return reply.Field("value"), nil
}

// Write sets one record.
func (fc *FileClient) Write(file, key, value string) error {
	_, err := fc.c.Do(wire.Message{Type: "write", F: map[string]string{"file": file, "key": key, "value": value}})
	return err
}

// Delete removes one record.
func (fc *FileClient) Delete(file, key string) error {
	_, err := fc.c.Do(wire.Message{Type: "delete", F: map[string]string{"file": file, "key": key}})
	return err
}

// Snapshot fetches all records of a file.
func (fc *FileClient) Snapshot(file string) (map[string]string, error) {
	reply, err := fc.c.Do(wire.Message{Type: "snapshot", F: map[string]string{"file": file}})
	if err != nil {
		return nil, err
	}
	if reply.F == nil {
		return map[string]string{}, nil
	}
	return reply.F, nil
}

// Close closes the connection.
func (fc *FileClient) Close() error { return fc.c.Close() }

// BibClient speaks the bibliographic dialect.
type BibClient struct{ c *wire.Client }

// DialBib connects to a ServeBib address.
func DialBib(addr string, opts ...wire.DialOption) (*BibClient, error) {
	c, err := wire.Dial(addr, nil, opts...)
	if err != nil {
		return nil, err
	}
	return &BibClient{c: c}, nil
}

// Get fetches one record by key.
func (bc *BibClient) Get(key string) (bibstore.Record, error) {
	reply, err := bc.c.Do(wire.Message{Type: "get", F: map[string]string{"key": key}})
	if err != nil {
		return bibstore.Record{}, err
	}
	if len(reply.Rows) != 1 {
		return bibstore.Record{}, fmt.Errorf("server: get returned %d rows", len(reply.Rows))
	}
	return decodeRecord(reply.Rows[0])
}

// Keys lists citation keys.
func (bc *BibClient) Keys() ([]string, error) {
	reply, err := bc.c.Do(wire.Message{Type: "keys"})
	if err != nil {
		return nil, err
	}
	return reply.Cols, nil
}

// Close closes the connection.
func (bc *BibClient) Close() error { return bc.c.Close() }
