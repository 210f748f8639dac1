package translator

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"cmtk/internal/cmi"
	"cmtk/internal/data"
	"cmtk/internal/rid"
	"cmtk/internal/ris"
	"cmtk/internal/ris/bibstore"
	"cmtk/internal/ris/filestore"
	"cmtk/internal/ris/kvstore"
	"cmtk/internal/ris/relstore"
	"cmtk/internal/ris/server"
	"cmtk/internal/vclock"
)

// payrollRID is the Section 4.2 site-B configuration.
const payrollRID = `
kind relstore
site B
item salary2
  type int
  read   SELECT salary FROM employees WHERE empid = $n
  write  UPDATE employees SET salary = $b WHERE empid = $n
  insert INSERT INTO employees (empid, salary) VALUES ($n, $b)
  delete DELETE FROM employees WHERE empid = $n
  list   SELECT empid FROM employees
  watch  employees
  keycol empid
  valcol salary
interface WR(salary2(n), b) ->3s W(salary2(n), b)
interface Ws(salary2(n), b) ->2s N(salary2(n), b)
`

func newPayrollDB(t *testing.T) *relstore.DB {
	t.Helper()
	db := relstore.New("payroll")
	if _, err := db.Exec("CREATE TABLE employees (empid TEXT, salary INT, PRIMARY KEY (empid))"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO employees VALUES ('e1', 100)"); err != nil {
		t.Fatal(err)
	}
	return db
}

func newRelTranslator(t *testing.T) (*relstore.DB, *Rel) {
	t.Helper()
	cfg, err := rid.ParseString(payrollRID)
	if err != nil {
		t.Fatal(err)
	}
	db := newPayrollDB(t)
	tr, err := NewRel(cfg, db, vclock.NewVirtual(vclock.Epoch))
	if err != nil {
		t.Fatal(err)
	}
	return db, tr
}

func item(base, key string) data.ItemName { return data.Item(base, data.NewString(key)) }

func TestRelReadWrite(t *testing.T) {
	_, tr := newRelTranslator(t)
	v, ok, err := tr.Read(item("salary2", "e1"))
	if err != nil || !ok || !v.Equal(data.NewInt(100)) {
		t.Fatalf("Read = %s, %v, %v", v, ok, err)
	}
	if err := tr.Write(item("salary2", "e1"), data.NewInt(150)); err != nil {
		t.Fatal(err)
	}
	v, ok, _ = tr.Read(item("salary2", "e1"))
	if !ok || !v.Equal(data.NewInt(150)) {
		t.Fatalf("after write: %s, %v", v, ok)
	}
	// Missing row reads as absent, not as an error.
	_, ok, err = tr.Read(item("salary2", "nobody"))
	if err != nil || ok {
		t.Fatalf("missing read = %v, %v", ok, err)
	}
}

func TestRelUpsertAndDelete(t *testing.T) {
	_, tr := newRelTranslator(t)
	// Write to a new key: update affects 0 rows, insert template kicks in.
	if err := tr.Write(item("salary2", "e9"), data.NewInt(900)); err != nil {
		t.Fatal(err)
	}
	v, ok, _ := tr.Read(item("salary2", "e9"))
	if !ok || !v.Equal(data.NewInt(900)) {
		t.Fatalf("upsert read = %s, %v", v, ok)
	}
	// Writing null deletes the row.
	if err := tr.Write(item("salary2", "e9"), data.NullValue); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := tr.Read(item("salary2", "e9")); ok {
		t.Fatal("row survived delete")
	}
}

func TestRelNotifyViaTrigger(t *testing.T) {
	db, tr := newRelTranslator(t)
	type note struct {
		item     data.ItemName
		old, new data.Value
	}
	var notes []note
	cancel, err := tr.Subscribe("salary2", func(i data.ItemName, old, new data.Value) {
		notes = append(notes, note{i, old, new})
	})
	if err != nil {
		t.Fatal(err)
	}
	// A spontaneous update by a local application (raw SQL, not via CM).
	db.Exec("UPDATE employees SET salary = 175 WHERE empid = 'e1'")
	if len(notes) != 1 {
		t.Fatalf("notes = %v", notes)
	}
	if notes[0].item.Key() != item("salary2", "e1").Key() || !notes[0].new.Equal(data.NewInt(175)) || !notes[0].old.Equal(data.NewInt(100)) {
		t.Fatalf("note = %+v", notes[0])
	}
	// Insert notifies with null old value.
	db.Exec("INSERT INTO employees VALUES ('e2', 200)")
	if len(notes) != 2 || !notes[1].old.IsNull() {
		t.Fatalf("insert note = %+v", notes)
	}
	// Delete notifies with null new value.
	db.Exec("DELETE FROM employees WHERE empid = 'e2'")
	if len(notes) != 3 || !notes[2].new.IsNull() {
		t.Fatalf("delete note = %+v", notes)
	}
	// Updates to unrelated columns do not notify... there are none in this
	// schema; instead check same-value update is suppressed.
	db.Exec("UPDATE employees SET salary = 175 WHERE empid = 'e1'")
	if len(notes) != 3 {
		t.Fatalf("no-op update notified: %v", notes)
	}
	cancel()
	db.Exec("UPDATE employees SET salary = 999 WHERE empid = 'e1'")
	if len(notes) != 3 {
		t.Fatal("notify after cancel")
	}
}

func TestRelKeyChangeSplitsIntoDeleteInsert(t *testing.T) {
	db, tr := newRelTranslator(t)
	var notes []string
	tr.Subscribe("salary2", func(i data.ItemName, old, new data.Value) {
		kind := "upd"
		if new.IsNull() {
			kind = "del"
		} else if old.IsNull() {
			kind = "ins"
		}
		notes = append(notes, kind+":"+i.String())
	})
	db.Exec("UPDATE employees SET empid = 'e1b' WHERE empid = 'e1'")
	if len(notes) != 2 || notes[0] != `del:salary2("e1")` || notes[1] != `ins:salary2("e1b")` {
		t.Fatalf("notes = %v", notes)
	}
}

func TestRelList(t *testing.T) {
	db, tr := newRelTranslator(t)
	db.Exec("INSERT INTO employees VALUES ('e2', 200)")
	items, err := tr.List("salary2")
	if err != nil || len(items) != 2 {
		t.Fatalf("List = %v, %v", items, err)
	}
}

func TestRelCapabilitiesFromStatements(t *testing.T) {
	_, tr := newRelTranslator(t)
	// WR -> W and Ws -> N were declared; no RR -> R was.
	if caps := CapsFromStatements(tr.Statements(), "salary2"); caps != ris.CapWrite|ris.CapDelete|ris.CapNotify {
		t.Fatalf("caps = %v", caps)
	}
	if got := CapsFromStatements(tr.Statements(), "other"); got != 0 {
		t.Fatalf("caps for unknown base = %v", got)
	}
}

func TestRelFailureReporting(t *testing.T) {
	_, tr := newRelTranslator(t)
	var fails []cmi.Failure
	tr.OnFailure(func(f cmi.Failure) { fails = append(fails, f) })
	// Unknown item base surfaces as a logical failure.
	if _, _, err := tr.Read(item("ghost", "x")); err == nil {
		t.Fatal("read of unbound item succeeded")
	}
	if len(fails) != 1 || fails[0].Kind != cmi.FailLogical || fails[0].Site != "B" {
		t.Fatalf("fails = %v", fails)
	}
}

func TestRelOverWire(t *testing.T) {
	// The same translator logic rides a remote source: Figure 2 end to end.
	cfg, err := rid.ParseString(payrollRID)
	if err != nil {
		t.Fatal(err)
	}
	db := newPayrollDB(t)
	srv, err := server.ServeRel("127.0.0.1:0", db)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cfg.Addr = srv.Addr()
	iface, err := Open(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer iface.Close()
	v, ok, err := iface.Read(item("salary2", "e1"))
	if err != nil || !ok || !v.Equal(data.NewInt(100)) {
		t.Fatalf("remote Read = %s, %v, %v", v, ok, err)
	}
	if err := iface.Write(item("salary2", "e1"), data.NewInt(111)); err != nil {
		t.Fatal(err)
	}
	got, _ := db.Exec("SELECT salary FROM employees WHERE empid = 'e1'")
	if !got.Rows[0][0].Equal(data.NewInt(111)) {
		t.Fatalf("server state = %v", got.Rows)
	}
}

const lookupRID = `
kind kvstore
site L
item phone1
  type string
  attr phone
interface Ws(phone1(n), b) ->2s N(phone1(n), b)
interface RR(phone1(n)) && phone1(n) = b ->1s R(phone1(n), b)
`

func TestKVTranslator(t *testing.T) {
	cfg, err := rid.ParseString(lookupRID)
	if err != nil {
		t.Fatal(err)
	}
	s := kvstore.New("lookup", false, true)
	tr, err := NewKV(cfg, LocalKV{s}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Absent entity reads as absent.
	if _, ok, err := tr.Read(item("phone1", "ann")); ok || err != nil {
		t.Fatalf("absent read = %v, %v", ok, err)
	}
	var notes int
	cancel, err := tr.Subscribe("phone1", func(i data.ItemName, old, new data.Value) { notes++ })
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if err := tr.Write(item("phone1", "ann"), data.NewString("555")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := tr.Read(item("phone1", "ann"))
	if err != nil || !ok || v.Str() != "555" {
		t.Fatalf("Read = %s, %v, %v", v, ok, err)
	}
	if notes != 1 {
		t.Fatalf("notes = %d", notes)
	}
	// Changes to other attributes are filtered out.
	s.Set("ann", "office", "444")
	if notes != 1 {
		t.Fatalf("unfiltered note: %d", notes)
	}
	// List finds entities carrying the attribute.
	s.Set("bob", "office", "445") // no phone
	items, err := tr.List("phone1")
	if err != nil || len(items) != 1 || items[0].Key() != item("phone1", "ann").Key() {
		t.Fatalf("List = %v, %v", items, err)
	}
	// Null write deletes.
	if err := tr.Write(item("phone1", "ann"), data.NullValue); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := tr.Read(item("phone1", "ann")); ok {
		t.Fatal("attr survived delete")
	}
	if caps := CapsFromStatements(tr.Statements(), "phone1"); caps != ris.CapNotify|ris.CapRead {
		t.Fatalf("caps = %v", caps)
	}
}

func TestKVTypedValues(t *testing.T) {
	cfg, err := rid.ParseString(`
kind kvstore
site L
item age1
  type int
  attr age
`)
	if err != nil {
		t.Fatal(err)
	}
	s := kvstore.New("lookup", false, false)
	tr, err := NewKV(cfg, LocalKV{s}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Write(item("age1", "ann"), data.NewInt(30)); err != nil {
		t.Fatal(err)
	}
	// The native store holds the raw string.
	raw, _ := s.Get("ann", "age")
	if raw != "30" {
		t.Fatalf("raw = %q", raw)
	}
	v, ok, err := tr.Read(item("age1", "ann"))
	if err != nil || !ok || !v.Equal(data.NewInt(30)) {
		t.Fatalf("Read = %s, %v, %v", v, ok, err)
	}
	// Corrupt native data surfaces as a (logical) failure.
	var fails int
	tr.OnFailure(func(cmi.Failure) { fails++ })
	s.SeedSet("ann", "age", "not-a-number")
	if _, _, err := tr.Read(item("age1", "ann")); err == nil {
		t.Fatal("corrupt read succeeded")
	}
	if fails != 1 {
		t.Fatalf("fails = %d", fails)
	}
}

const fileRID = `
kind filestore
site F
item fphone
  type string
  file phones
interface RR(fphone(n)) && fphone(n) = b ->1s R(fphone(n), b)
interface WR(fphone(n), b) ->1s W(fphone(n), b)
`

func TestFileTranslator(t *testing.T) {
	cfg, err := rid.ParseString(fileRID)
	if err != nil {
		t.Fatal(err)
	}
	s, err := filestore.Open(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewFile(cfg, s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Write(item("fphone", "ann"), data.NewString("555")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := tr.Read(item("fphone", "ann"))
	if err != nil || !ok || v.Str() != "555" {
		t.Fatalf("Read = %s, %v, %v", v, ok, err)
	}
	// No native notify: ErrUnsupported pushes strategies toward polling.
	if _, err := tr.Subscribe("fphone", func(data.ItemName, data.Value, data.Value) {}); !errors.Is(err, ris.ErrUnsupported) {
		t.Fatalf("Subscribe err = %v", err)
	}
	items, err := tr.List("fphone")
	if err != nil || len(items) != 1 {
		t.Fatalf("List = %v, %v", items, err)
	}
	if err := tr.Write(item("fphone", "ann"), data.NullValue); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := tr.Read(item("fphone", "ann")); ok {
		t.Fatal("record survived delete")
	}
}

const bibRID = `
kind bibstore
site Bib
item paper
  type string
  field title
`

func TestBibTranslator(t *testing.T) {
	cfg, err := rid.ParseString(bibRID)
	if err != nil {
		t.Fatal(err)
	}
	s := bibstore.New()
	s.Load(
		bibstore.Record{Key: "w96", Author: "Widom", Title: "Toolkit", Year: 1996, Venue: "ICDE"},
		bibstore.Record{Key: "g92", Author: "Garcia-Molina", Title: "Demarcation", Year: 1992, Venue: "EDBT"},
	)
	tr, err := NewBib(cfg, LocalBib{s}, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, ok, err := tr.Read(item("paper", "w96"))
	if err != nil || !ok || v.Str() != "Toolkit" {
		t.Fatalf("Read = %s, %v, %v", v, ok, err)
	}
	if _, ok, err := tr.Read(item("paper", "none")); ok || err != nil {
		t.Fatalf("missing read = %v, %v", ok, err)
	}
	if err := tr.Write(item("paper", "w96"), data.NewString("x")); !errors.Is(err, ris.ErrReadOnly) {
		t.Fatalf("Write err = %v", err)
	}
	if _, err := tr.Subscribe("paper", nil); !errors.Is(err, ris.ErrUnsupported) {
		t.Fatalf("Subscribe err = %v", err)
	}
	items, err := tr.List("paper")
	if err != nil || len(items) != 2 {
		t.Fatalf("List = %v, %v", items, err)
	}
}

func TestOpenFactoryLocalAndErrors(t *testing.T) {
	cfg, _ := rid.ParseString(payrollRID)
	if _, err := Open(cfg, nil, nil); err == nil {
		t.Fatal("Open without local store succeeded")
	}
	db := newPayrollDB(t)
	iface, err := Open(cfg, &LocalStores{Rel: db}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if iface.Site() != "B" {
		t.Fatalf("site = %s", iface.Site())
	}
	if len(iface.Statements()) != 2 {
		t.Fatalf("statements = %d", len(iface.Statements()))
	}
	// Kind mismatch errors.
	kvCfg, _ := rid.ParseString(lookupRID)
	if _, err := NewRel(kvCfg, db, nil); err == nil {
		t.Fatal("kind mismatch accepted")
	}
}

func TestSubstSQL(t *testing.T) {
	it := data.Item("salary2", data.NewString("e'1"))
	q, err := substSQL("UPDATE t SET s = $b WHERE id = $n", it, data.NewInt(5))
	if err != nil {
		t.Fatal(err)
	}
	want := "UPDATE t SET s = 5 WHERE id = 'e''1'"
	if q != want {
		t.Fatalf("q = %q, want %q", q, want)
	}
	// $n with no key argument errors.
	if _, err := substSQL("WHERE id = $n", data.Item("x"), data.NullValue); err == nil {
		t.Fatal("no-arg $n succeeded")
	}
}

// TestSubstSQLAllocs pins the cost of rendering the payroll write
// template for a TEXT key and a 3-digit value: the statement's string.
func TestSubstSQLAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	cfg, err := rid.ParseString(payrollRID)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := cfg.Binding("salary2")
	it, v := item("salary2", "e17"), data.NewInt(250)
	const want = "UPDATE employees SET salary = 250 WHERE empid = 'e17'"
	if got := testing.AllocsPerRun(200, func() {
		if q, err := substSQL(b.WriteSQL, it, v); err != nil || q != want {
			t.Fatalf("substSQL = %q, %v; want %q", q, err, want)
		}
	}); got > 1 {
		t.Errorf("substSQL: %.1f allocs, budget 1", got)
	}
}

// TestSubstSQLDoesNotRescanSubstitutedText: a key or value holding "$b",
// "$n" or a quote is substituted as written in every template, and the
// statement built from it reaches the item's own row.
func TestSubstSQLDoesNotRescanSubstitutedText(t *testing.T) {
	cfg, err := rid.ParseString(payrollRID)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := cfg.Binding("salary2")
	cases := []struct {
		key  string
		v    data.Value
		want [4]string // read, write, insert, delete
	}{
		{"a$b", data.NewInt(5), [4]string{
			"SELECT salary FROM employees WHERE empid = 'a$b'",
			"UPDATE employees SET salary = 5 WHERE empid = 'a$b'",
			"INSERT INTO employees (empid, salary) VALUES ('a$b', 5)",
			"DELETE FROM employees WHERE empid = 'a$b'",
		}},
		{"$n'$b$", data.NewString("$n$b'"), [4]string{
			"SELECT salary FROM employees WHERE empid = '$n''$b$'",
			"UPDATE employees SET salary = '$n$b''' WHERE empid = '$n''$b$'",
			"INSERT INTO employees (empid, salary) VALUES ('$n''$b$', '$n$b''')",
			"DELETE FROM employees WHERE empid = '$n''$b$'",
		}},
	}
	for _, c := range cases {
		it := item("salary2", c.key)
		for i, tpl := range []string{b.ReadSQL, b.WriteSQL, b.InsertSQL, b.DeleteSQL} {
			got, err := substSQL(tpl, it, c.v)
			if err != nil || got != c.want[i] {
				t.Errorf("substSQL(%q, %s, %s) = %q, %v; want %q", tpl, it, c.v, got, err, c.want[i])
			}
		}
	}

	// Through the translator: row 'a5' is what the rescanning expansion
	// hit when writing salary2("a$b") = 5.
	db, tr := newRelTranslator(t)
	if _, err := db.Exec("INSERT INTO employees VALUES ('a5', 1)"); err != nil {
		t.Fatal(err)
	}
	it := item("salary2", "a$b")
	for _, v := range []data.Value{data.NewInt(5), data.NewInt(6)} { // insert, then update
		if err := tr.Write(it, v); err != nil {
			t.Fatal(err)
		}
		if got, ok, err := tr.Read(it); err != nil || !ok || !got.Equal(v) {
			t.Fatalf("Read %s = %s, %v, %v; want %s", it, got, ok, err, v)
		}
	}
	if err := tr.Write(it, data.NullValue); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := tr.Read(it); err != nil || ok {
		t.Fatalf("Read %s after delete = %v, %v", it, ok, err)
	}
	res, err := db.Exec("SELECT salary FROM employees WHERE empid = 'a5'")
	if err != nil || len(res.Rows) != 1 || !res.Rows[0][0].Equal(data.NewInt(1)) {
		t.Fatalf("row a5 = %v, %v; want untouched salary 1", res, err)
	}
}

func TestConvertRender(t *testing.T) {
	cases := []struct {
		raw, typ string
		want     data.Value
	}{
		{"42", "int", data.NewInt(42)},
		{"2.5", "float", data.NewFloat(2.5)},
		{"true", "bool", data.NewBool(true)},
		{"hello", "string", data.NewString("hello")},
	}
	for _, c := range cases {
		v, err := convert(c.raw, c.typ)
		if err != nil || !v.Equal(c.want) {
			t.Errorf("convert(%q, %s) = %s, %v", c.raw, c.typ, v, err)
		}
		if got := render(v); got != c.raw {
			t.Errorf("render(%s) = %q, want %q", v, got, c.raw)
		}
	}
	for _, bad := range []struct{ raw, typ string }{{"x", "int"}, {"x", "float"}, {"x", "bool"}} {
		if _, err := convert(bad.raw, bad.typ); err == nil {
			t.Errorf("convert(%q, %s) succeeded", bad.raw, bad.typ)
		}
	}
}

func TestConditionalNotifyInterface(t *testing.T) {
	// Section 3.1.1: Ws(X, a, b) ∧ (|b − a| > 0.1·a) →δ N(X, b): the
	// translator forwards only changes above 10%.
	cfg, err := rid.ParseString(`
kind relstore
site A
item salary1
  type int
  read   SELECT salary FROM employees WHERE empid = $n
  list   SELECT empid FROM employees
  watch  employees
  keycol empid
  valcol salary
  notifycond abs(b - a) > 0.1 * a
interface Ws(salary1(n), b) ->2s N(salary1(n), b)
`)
	if err != nil {
		t.Fatal(err)
	}
	db := newPayrollDB(t)
	tr, err := NewRel(cfg, db, nil)
	if err != nil {
		t.Fatal(err)
	}
	var notes []data.Value
	if _, err := tr.Subscribe("salary1", func(i data.ItemName, old, new data.Value) {
		notes = append(notes, new)
	}); err != nil {
		t.Fatal(err)
	}
	// 100 -> 105: a 5% change, filtered out.
	db.Exec("UPDATE employees SET salary = 105 WHERE empid = 'e1'")
	if len(notes) != 0 {
		t.Fatalf("5%% change notified: %v", notes)
	}
	// 105 -> 140: a 33% change, forwarded.
	db.Exec("UPDATE employees SET salary = 140 WHERE empid = 'e1'")
	if len(notes) != 1 || !notes[0].Equal(data.NewInt(140)) {
		t.Fatalf("33%% change notes = %v", notes)
	}
	// Creations and deletions always notify.
	db.Exec("INSERT INTO employees VALUES ('e2', 1)")
	db.Exec("DELETE FROM employees WHERE empid = 'e2'")
	if len(notes) != 3 {
		t.Fatalf("create/delete notes = %v", notes)
	}
}

func TestConditionalNotifyKV(t *testing.T) {
	cfg, err := rid.ParseString(`
kind kvstore
site L
item age1
  type int
  attr age
  notifycond b != a
`)
	if err != nil {
		t.Fatal(err)
	}
	s := kvstore.New("lookup", false, true)
	tr, err := NewKV(cfg, LocalKV{s}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var notes int
	tr.Subscribe("age1", func(data.ItemName, data.Value, data.Value) { notes++ })
	s.Set("ann", "age", "30") // creation: notifies
	s.Set("ann", "age", "30") // same value: filtered
	s.Set("ann", "age", "31") // change: notifies
	if notes != 2 {
		t.Fatalf("notes = %d, want 2", notes)
	}
}

func TestNotifyCondRIDRoundTrip(t *testing.T) {
	cfg, err := rid.ParseString(`
kind kvstore
site L
item x
  attr v
  notifycond abs(b - a) > 5
`)
	if err != nil {
		t.Fatal(err)
	}
	cfg2, err := rid.ParseString(cfg.String())
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, cfg.String())
	}
	if cfg2.Items["x"].NotifyCond == nil {
		t.Fatal("notifycond lost in round trip")
	}
	// Bad expressions are rejected at parse time.
	if _, err := rid.ParseString("kind kvstore\nsite L\nitem x\n  attr v\n  notifycond ((("); err == nil {
		t.Fatal("bad notifycond accepted")
	}
}

func TestFaultyWrapper(t *testing.T) {
	_, inner := newRelTranslator(t)
	f := NewFaulty(inner, vclock.NewVirtual(vclock.Epoch))
	var fails []cmi.Failure
	f.OnFailure(func(x cmi.Failure) { fails = append(fails, x) })

	// Healthy: passthrough, no failures.
	if v, ok, err := f.Read(item("salary2", "e1")); err != nil || !ok || !v.Equal(data.NewInt(100)) {
		t.Fatalf("healthy read = %s, %v, %v", v, ok, err)
	}
	if len(fails) != 0 {
		t.Fatalf("healthy fails = %v", fails)
	}
	if f.Site() != "B" || len(f.Statements()) == 0 {
		t.Fatal("delegation broken")
	}

	// Slow: the operation still succeeds but a metric failure is raised.
	f.SetMode(Slow)
	if err := f.Write(item("salary2", "e1"), data.NewInt(120)); err != nil {
		t.Fatalf("slow write failed outright: %v", err)
	}
	if v, _, _ := f.Read(item("salary2", "e1")); !v.Equal(data.NewInt(120)) {
		t.Fatal("slow write lost")
	}
	if len(fails) == 0 || fails[0].Kind != cmi.FailMetric {
		t.Fatalf("slow fails = %v", fails)
	}

	// Down: operations fail with logical failures.
	f.SetMode(Down)
	n := len(fails)
	if _, _, err := f.Read(item("salary2", "e1")); err == nil {
		t.Fatal("down read succeeded")
	}
	if err := f.Write(item("salary2", "e1"), data.NewInt(1)); err == nil {
		t.Fatal("down write succeeded")
	}
	if _, err := f.List("salary2"); err == nil {
		t.Fatal("down list succeeded")
	}
	for _, x := range fails[n:] {
		if x.Kind != cmi.FailLogical {
			t.Fatalf("down failure kind = %v", x.Kind)
		}
	}
	if f.Mode() != Down || f.Mode().String() != "down" {
		t.Fatal("mode accessors broken")
	}
}

func TestFaultySubscribeModes(t *testing.T) {
	db, inner := newRelTranslator(t)
	f := NewFaulty(inner, vclock.NewVirtual(vclock.Epoch))
	var notes int
	var fails int
	f.OnFailure(func(cmi.Failure) { fails++ })
	cancel, err := f.Subscribe("salary2", func(data.ItemName, data.Value, data.Value) { notes++ })
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	db.Exec("UPDATE employees SET salary = 101 WHERE empid = 'e1'")
	if notes != 1 {
		t.Fatalf("healthy notes = %d", notes)
	}
	// Slow: notification still arrives, metric failure raised.
	f.SetMode(Slow)
	db.Exec("UPDATE employees SET salary = 102 WHERE empid = 'e1'")
	if notes != 2 || fails == 0 {
		t.Fatalf("slow notes = %d fails = %d", notes, fails)
	}
	// Down: notifications silently lost (the paper's undetectable case).
	f.SetMode(Down)
	db.Exec("UPDATE employees SET salary = 103 WHERE empid = 'e1'")
	if notes != 2 {
		t.Fatalf("down notes = %d", notes)
	}
}

func TestOpenFactoryRemoteAllKinds(t *testing.T) {
	// Every source kind opens over the network through its dialect client.
	clk := vclock.NewVirtual(vclock.Epoch)

	// kvstore.
	kv := kvstore.New("lookup", false, true)
	kv.SeedSet("ann", "phone", "555")
	kvSrv, err := server.ServeKV("127.0.0.1:0", kv)
	if err != nil {
		t.Fatal(err)
	}
	defer kvSrv.Close()
	kvCfg, _ := rid.ParseString(lookupRID)
	kvCfg.Addr = kvSrv.Addr()
	kvIface, err := Open(kvCfg, nil, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer kvIface.Close()
	if v, ok, err := kvIface.Read(item("phone1", "ann")); err != nil || !ok || v.Str() != "555" {
		t.Fatalf("remote kv read = %s, %v, %v", v, ok, err)
	}
	var notes atomic.Int64
	if _, err := kvIface.Subscribe("phone1", func(data.ItemName, data.Value, data.Value) { notes.Add(1) }); err != nil {
		t.Fatal(err)
	}
	kv.Set("bob", "phone", "556")
	deadline := timeNowPlus(5)
	for notes.Load() == 0 && timeBefore(deadline) {
		sleepMS(5)
	}
	if notes.Load() == 0 {
		t.Fatal("remote kv notification never arrived")
	}

	// filestore.
	fs, err := filestore.Open(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	fs.Write("phones", "ann", "555")
	fsSrv, err := server.ServeFile("127.0.0.1:0", fs)
	if err != nil {
		t.Fatal(err)
	}
	defer fsSrv.Close()
	fsCfg, _ := rid.ParseString(fileRID)
	fsCfg.Addr = fsSrv.Addr()
	fsIface, err := Open(fsCfg, nil, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer fsIface.Close()
	if v, ok, err := fsIface.Read(item("fphone", "ann")); err != nil || !ok || v.Str() != "555" {
		t.Fatalf("remote file read = %s, %v, %v", v, ok, err)
	}
	if items, err := fsIface.List("fphone"); err != nil || len(items) != 1 {
		t.Fatalf("remote file list = %v, %v", items, err)
	}

	// bibstore.
	bs := bibstore.New()
	bs.Load(bibstore.Record{Key: "w96", Author: "Widom", Title: "Toolkit", Year: 1996, Venue: "ICDE"})
	bsSrv, err := server.ServeBib("127.0.0.1:0", bs)
	if err != nil {
		t.Fatal(err)
	}
	defer bsSrv.Close()
	bsCfg, _ := rid.ParseString(bibRID)
	bsCfg.Addr = bsSrv.Addr()
	bsIface, err := Open(bsCfg, nil, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer bsIface.Close()
	if v, ok, err := bsIface.Read(item("paper", "w96")); err != nil || !ok || v.Str() != "Toolkit" {
		t.Fatalf("remote bib read = %s, %v, %v", v, ok, err)
	}
	if items, err := bsIface.List("paper"); err != nil || len(items) != 1 {
		t.Fatalf("remote bib list = %v, %v", items, err)
	}
	if _, ok := bsIface.(*Bib); !ok {
		t.Fatal("remote bib iface not *Bib")
	}
}

func TestOpenFactoryErrors(t *testing.T) {
	// Missing local stores per kind.
	for _, src := range []string{lookupRID, fileRID, bibRID} {
		cfg, err := rid.ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Open(cfg, nil, nil); err == nil {
			t.Errorf("Open(%s) without local store succeeded", cfg.Kind)
		}
		if _, err := Open(cfg, &LocalStores{}, nil); err == nil {
			t.Errorf("Open(%s) with empty local stores succeeded", cfg.Kind)
		}
	}
	// Unknown kind.
	bad := &rid.Config{Kind: "nosuch", Site: "S", Items: map[string]*rid.ItemBinding{}}
	if _, err := Open(bad, nil, nil); err == nil {
		t.Error("unknown kind accepted")
	}
	// Dead addresses fail to dial.
	cfg, _ := rid.ParseString(lookupRID)
	cfg.Addr = "127.0.0.1:1"
	if _, err := Open(cfg, nil, nil); err == nil {
		t.Error("dial to dead address succeeded")
	}
}

func TestKeyStringErrors(t *testing.T) {
	if _, err := keyString(data.Item("x")); err == nil {
		t.Error("keyless item accepted")
	}
	if _, err := keyString(data.Item("x", data.NewInt(1), data.NewInt(2))); err == nil {
		t.Error("two-key item accepted")
	}
	if k, err := keyString(data.Item("x", data.NewString("k"))); err != nil || k != "k" {
		t.Errorf("keyString = %q, %v", k, err)
	}
}

func timeNowPlus(sec int) time.Time { return time.Now().Add(time.Duration(sec) * time.Second) }
func timeBefore(t time.Time) bool   { return time.Now().Before(t) }
func sleepMS(ms int)                { time.Sleep(time.Duration(ms) * time.Millisecond) }

func TestFaultyCrashRecoveryReplaysNotifications(t *testing.T) {
	db, inner := newRelTranslator(t)
	f := NewFaulty(inner, vclock.NewVirtual(vclock.Epoch))
	var notes []data.Value
	var kinds []cmi.FailureKind
	f.OnFailure(func(x cmi.Failure) { kinds = append(kinds, x.Kind) })
	if _, err := f.Subscribe("salary2", func(i data.ItemName, old, new data.Value) {
		notes = append(notes, new)
	}); err != nil {
		t.Fatal(err)
	}
	// Crash, then two spontaneous updates during the outage.
	f.SetMode(Crashed)
	db.Exec("UPDATE employees SET salary = 110 WHERE empid = 'e1'")
	db.Exec("UPDATE employees SET salary = 120 WHERE empid = 'e1'")
	if len(notes) != 0 {
		t.Fatalf("notes during crash = %v", notes)
	}
	// Every buffered notification surfaced a metric (not logical) failure.
	for _, k := range kinds {
		if k != cmi.FailMetric {
			t.Fatalf("crash failure kind = %v", k)
		}
	}
	if len(kinds) != 2 {
		t.Fatalf("failures = %d", len(kinds))
	}
	// Recovery replays in order.
	f.SetMode(Healthy)
	if len(notes) != 2 || !notes[0].Equal(data.NewInt(110)) || !notes[1].Equal(data.NewInt(120)) {
		t.Fatalf("replayed notes = %v", notes)
	}
	// Crashed operations fail transiently.
	f.SetMode(Crashed)
	if _, _, err := f.Read(item("salary2", "e1")); err == nil {
		t.Fatal("crashed read succeeded")
	} else if !ris.IsTransient(err) {
		t.Fatalf("crashed read err = %v", err)
	}
	if f.Mode().String() != "crashed" {
		t.Fatal("mode string")
	}
}
