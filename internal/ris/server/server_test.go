package server

import (
	"errors"
	"testing"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/ris"
	"cmtk/internal/ris/bibstore"
	"cmtk/internal/ris/filestore"
	"cmtk/internal/ris/kvstore"
	"cmtk/internal/ris/relstore"
	"cmtk/internal/wire"
)

func relPair(t *testing.T) (*relstore.DB, *RelClient) {
	t.Helper()
	db := relstore.New("payroll")
	if _, err := db.Exec("CREATE TABLE employees (empid TEXT, salary INT, PRIMARY KEY (empid))"); err != nil {
		t.Fatal(err)
	}
	srv, err := ServeRel("127.0.0.1:0", db)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := DialRel(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return db, c
}

func TestRelExecOverWire(t *testing.T) {
	_, c := relPair(t)
	if _, err := c.Exec("INSERT INTO employees VALUES ('e1', 100)"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec("SELECT salary FROM employees WHERE empid = 'e1'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || !res.Rows[0][0].Equal(data.NewInt(100)) {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Columns[0] != "salary" {
		t.Fatalf("cols = %v", res.Columns)
	}
	// SQL errors survive the wire.
	if _, err := c.Exec("SELECT x FROM missing"); !errors.Is(err, ris.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	// Affected count survives.
	res, err = c.Exec("UPDATE employees SET salary = 150 WHERE empid = 'e1'")
	if err != nil || res.Affected != 1 {
		t.Fatalf("affected = %d, %v", res.Affected, err)
	}
}

func TestRelRemoteTrigger(t *testing.T) {
	db, c := relPair(t)
	fires := make(chan relstore.TriggerOp, 4)
	cancel, err := c.RegisterTrigger("employees", func(op relstore.TriggerOp, tbl string, old, new relstore.Row) {
		if op == relstore.TrigUpdate {
			if old == nil || new == nil {
				t.Errorf("update rows: old=%v new=%v", old, new)
			}
			if !new[1].Equal(data.NewInt(200)) {
				t.Errorf("new salary = %v", new[1])
			}
		}
		fires <- op
	})
	if err != nil {
		t.Fatal(err)
	}
	// Local mutation on the server side must reach the remote watcher —
	// this is the notify interface over the wire.
	if _, err := db.Exec("INSERT INTO employees VALUES ('e1', 100)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("UPDATE employees SET salary = 200 WHERE empid = 'e1'"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []relstore.TriggerOp{relstore.TrigInsert, relstore.TrigUpdate} {
		select {
		case op := <-fires:
			if op != want {
				t.Fatalf("op = %v, want %v", op, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("trigger never arrived")
		}
	}
	cancel()
	// Give the unwatch a moment, then mutate again: no more fires.
	time.Sleep(50 * time.Millisecond)
	db.Exec("UPDATE employees SET salary = 300 WHERE empid = 'e1'")
	select {
	case op := <-fires:
		t.Fatalf("unexpected fire %v after cancel", op)
	case <-time.After(100 * time.Millisecond):
	}
}

// TestRelTables holds that the relational dialect has no "tables" op: no
// shipped client sent it, so the server rejects it as an unknown request.
func TestRelTables(t *testing.T) {
	_, c := relPair(t)
	if _, err := c.c.Do(wire.Message{Type: "tables"}); !errors.Is(err, ris.ErrUnsupported) {
		t.Fatalf("tables: err = %v, want ErrUnsupported", err)
	}
}

func TestKVOverWire(t *testing.T) {
	s := kvstore.New("lookup", false, true)
	srv, err := ServeKV("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialKV(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	changes := make(chan kvstore.Change, 4)
	if _, err := c.Watch(func(ch kvstore.Change) { changes <- ch }); err != nil {
		t.Fatal(err)
	}
	if err := c.Set("ann", "phone", "555"); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get("ann", "phone")
	if err != nil || v != "555" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	ents, err := c.Entities()
	if err != nil || len(ents) != 1 || ents[0] != "ann" {
		t.Fatalf("Entities = %v, %v", ents, err)
	}
	select {
	case ch := <-changes:
		if ch.Entity != "ann" || ch.New != "555" {
			t.Fatalf("change = %+v", ch)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("change never arrived")
	}
	if err := c.Del("ann", "phone"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("ann", "phone"); !errors.Is(err, ris.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestKVReadOnlyOverWire(t *testing.T) {
	s := kvstore.New("whois", true, false)
	s.SeedSet("ann", "phone", "555")
	srv, err := ServeKV("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialKV(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Set("ann", "phone", "666"); !errors.Is(err, ris.ErrReadOnly) {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.Watch(func(kvstore.Change) {}); !errors.Is(err, ris.ErrUnsupported) {
		t.Fatalf("watch err = %v", err)
	}
}

func TestFileOverWire(t *testing.T) {
	s, err := filestore.Open(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeFile("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialFile(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Write("phones", "ann", "555"); err != nil {
		t.Fatal(err)
	}
	v, err := c.Read("phones", "ann")
	if err != nil || v != "555" {
		t.Fatalf("Read = %q, %v", v, err)
	}
	snap, err := c.Snapshot("phones")
	if err != nil || snap["ann"] != "555" {
		t.Fatalf("Snapshot = %v, %v", snap, err)
	}
	if snap, err := c.Snapshot("empty"); err != nil || len(snap) != 0 {
		t.Fatalf("empty Snapshot = %v, %v", snap, err)
	}
	if err := c.Delete("phones", "ann"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read("phones", "ann"); !errors.Is(err, ris.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestBibOverWire(t *testing.T) {
	s := bibstore.New()
	s.Load(
		bibstore.Record{Key: "w96", Author: "Widom", Title: "Toolkit", Year: 1996, Venue: "ICDE"},
		bibstore.Record{Key: "g92", Author: "Garcia-Molina", Title: "Demarcation", Year: 1992, Venue: "EDBT"},
	)
	srv, err := ServeBib("127.0.0.1:0", s)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialBib(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r, err := c.Get("g92")
	if err != nil || r.Title != "Demarcation" {
		t.Fatalf("Get = %+v, %v", r, err)
	}
	if _, err := c.Get("none"); !errors.Is(err, ris.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	keys, err := c.Keys()
	if err != nil || len(keys) != 2 {
		t.Fatalf("Keys = %v, %v", keys, err)
	}
}

func TestUnknownRequestRejected(t *testing.T) {
	db := relstore.New("x")
	srv, err := ServeRel("127.0.0.1:0", db)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := wire.Dial(srv.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Do(wire.Message{Type: "bogus"}); !errors.Is(err, ris.ErrUnsupported) {
		t.Fatalf("err = %v", err)
	}
}
