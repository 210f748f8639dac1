package relstore

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"unsafe"

	"cmtk/internal/data"
	"cmtk/internal/ris"
)

func mustExec(t *testing.T, db *DB, sql string) Result {
	t.Helper()
	res, err := db.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func newEmployees(t *testing.T) *DB {
	t.Helper()
	db := New("payroll")
	mustExec(t, db, "CREATE TABLE employees (empid TEXT, salary INT, dept TEXT, PRIMARY KEY (empid))")
	mustExec(t, db, "INSERT INTO employees (empid, salary, dept) VALUES ('e1', 100, 'sales')")
	mustExec(t, db, "INSERT INTO employees (empid, salary, dept) VALUES ('e2', 200, 'eng')")
	mustExec(t, db, "INSERT INTO employees (empid, salary, dept) VALUES ('e3', 300, 'eng')")
	return db
}

func TestCreateInsertSelect(t *testing.T) {
	db := newEmployees(t)
	res := mustExec(t, db, "SELECT salary FROM employees WHERE empid = 'e2'")
	if len(res.Rows) != 1 || !res.Rows[0][0].Equal(data.NewInt(200)) {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Columns[0] != "salary" {
		t.Fatalf("columns = %v", res.Columns)
	}
}

func TestSelectStarAndOrder(t *testing.T) {
	db := newEmployees(t)
	res := mustExec(t, db, "SELECT * FROM employees")
	if len(res.Rows) != 3 || len(res.Columns) != 3 {
		t.Fatalf("rows=%d cols=%v", len(res.Rows), res.Columns)
	}
	// Deterministic order by PK.
	if !res.Rows[0][0].Equal(data.NewString("e1")) || !res.Rows[2][0].Equal(data.NewString("e3")) {
		t.Fatalf("order: %v", res.Rows)
	}
}

func TestWhereOperators(t *testing.T) {
	db := newEmployees(t)
	cases := map[string]int{
		"SELECT empid FROM employees WHERE salary > 100":                  2,
		"SELECT empid FROM employees WHERE salary >= 100":                 3,
		"SELECT empid FROM employees WHERE salary < 300":                  2,
		"SELECT empid FROM employees WHERE salary <= 100":                 1,
		"SELECT empid FROM employees WHERE salary <> 200":                 2,
		"SELECT empid FROM employees WHERE salary != 200":                 2,
		"SELECT empid FROM employees WHERE dept = 'eng' AND salary > 200": 1,
		"SELECT empid FROM employees WHERE dept = 'hr'":                   0,
	}
	for sql, want := range cases {
		res := mustExec(t, db, sql)
		if len(res.Rows) != want {
			t.Errorf("%s: %d rows, want %d", sql, len(res.Rows), want)
		}
	}
}

func TestUpdate(t *testing.T) {
	db := newEmployees(t)
	res := mustExec(t, db, "UPDATE employees SET salary = 250 WHERE empid = 'e2'")
	if res.Affected != 1 {
		t.Fatalf("affected = %d", res.Affected)
	}
	got := mustExec(t, db, "SELECT salary FROM employees WHERE empid = 'e2'")
	if !got.Rows[0][0].Equal(data.NewInt(250)) {
		t.Fatalf("salary = %v", got.Rows[0][0])
	}
	// Multi-row update.
	res = mustExec(t, db, "UPDATE employees SET dept = 'ops' WHERE dept = 'eng'")
	if res.Affected != 2 {
		t.Fatalf("affected = %d", res.Affected)
	}
}

func TestUpdatePrimaryKeyRekeys(t *testing.T) {
	db := newEmployees(t)
	mustExec(t, db, "UPDATE employees SET empid = 'e9' WHERE empid = 'e1'")
	if r := mustExec(t, db, "SELECT * FROM employees WHERE empid = 'e9'"); len(r.Rows) != 1 {
		t.Fatal("rekeyed row missing")
	}
	if r := mustExec(t, db, "SELECT * FROM employees WHERE empid = 'e1'"); len(r.Rows) != 0 {
		t.Fatal("old key still present")
	}
	// Rekey onto an existing PK fails.
	if _, err := db.Exec("UPDATE employees SET empid = 'e2' WHERE empid = 'e9'"); err == nil {
		t.Fatal("duplicate-PK update succeeded")
	}
}

func TestDelete(t *testing.T) {
	db := newEmployees(t)
	res := mustExec(t, db, "DELETE FROM employees WHERE dept = 'eng'")
	if res.Affected != 2 {
		t.Fatalf("affected = %d", res.Affected)
	}
	if n := len(mustExec(t, db, "SELECT * FROM employees").Rows); n != 1 {
		t.Fatalf("rows = %d", n)
	}
}

func TestDuplicatePKRejected(t *testing.T) {
	db := newEmployees(t)
	if _, err := db.Exec("INSERT INTO employees (empid, salary, dept) VALUES ('e1', 1, 'x')"); err == nil {
		t.Fatal("duplicate insert succeeded")
	}
}

func TestTypeCoercion(t *testing.T) {
	db := New("t")
	mustExec(t, db, "CREATE TABLE v (i INT, f FLOAT, s TEXT, b BOOL)")
	// Float that is integral goes into INT; int goes into FLOAT.
	mustExec(t, db, "INSERT INTO v VALUES (3.0, 4, 'x', TRUE)")
	res := mustExec(t, db, "SELECT * FROM v")
	if res.Rows[0][0].Kind() != data.Int || res.Rows[0][1].Kind() != data.Float {
		t.Fatalf("kinds: %v %v", res.Rows[0][0].Kind(), res.Rows[0][1].Kind())
	}
	// Non-integral float into INT fails.
	if _, err := db.Exec("INSERT INTO v (i) VALUES (3.5)"); err == nil {
		t.Fatal("3.5 into INT succeeded")
	}
	if _, err := db.Exec("INSERT INTO v (s) VALUES (42)"); err == nil {
		t.Fatal("int into TEXT succeeded")
	}
	if _, err := db.Exec("INSERT INTO v (b) VALUES ('yes')"); err == nil {
		t.Fatal("string into BOOL succeeded")
	}
	// NULL fits anywhere (non-PK).
	mustExec(t, db, "INSERT INTO v (i) VALUES (NULL)")
}

func TestNullPKRejected(t *testing.T) {
	db := newEmployees(t)
	if _, err := db.Exec("INSERT INTO employees (salary) VALUES (5)"); err == nil {
		t.Fatal("null PK insert succeeded")
	}
}

func TestRowsWithoutPK(t *testing.T) {
	db := New("t")
	mustExec(t, db, "CREATE TABLE log (msg TEXT)")
	mustExec(t, db, "INSERT INTO log VALUES ('a')")
	mustExec(t, db, "INSERT INTO log VALUES ('a')") // duplicates allowed
	if n := len(mustExec(t, db, "SELECT * FROM log").Rows); n != 2 {
		t.Fatalf("rows = %d", n)
	}
	mustExec(t, db, "UPDATE log SET msg = 'b'")
	res := mustExec(t, db, "SELECT msg FROM log WHERE msg = 'b'")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestTriggers(t *testing.T) {
	db := newEmployees(t)
	type fire struct {
		op       TriggerOp
		old, new Row
	}
	var fires []fire
	cancel, err := db.RegisterTrigger("employees", func(op TriggerOp, tbl string, old, new Row) {
		if tbl != "employees" {
			t.Errorf("table = %s", tbl)
		}
		fires = append(fires, fire{op, old, new})
	})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "INSERT INTO employees (empid, salary, dept) VALUES ('e4', 400, 'hr')")
	mustExec(t, db, "UPDATE employees SET salary = 450 WHERE empid = 'e4'")
	mustExec(t, db, "DELETE FROM employees WHERE empid = 'e4'")
	if len(fires) != 3 {
		t.Fatalf("fires = %d", len(fires))
	}
	if fires[0].op != TrigInsert || fires[0].old != nil || fires[0].new == nil {
		t.Fatalf("insert fire: %+v", fires[0])
	}
	if fires[1].op != TrigUpdate || !fires[1].old[1].Equal(data.NewInt(400)) || !fires[1].new[1].Equal(data.NewInt(450)) {
		t.Fatalf("update fire: %+v", fires[1])
	}
	if fires[2].op != TrigDelete || fires[2].new != nil {
		t.Fatalf("delete fire: %+v", fires[2])
	}
	// After cancel, no more fires.
	cancel()
	mustExec(t, db, "INSERT INTO employees (empid, salary, dept) VALUES ('e5', 1, 'hr')")
	if len(fires) != 3 {
		t.Fatalf("trigger fired after cancel")
	}
}

// TestTriggerRowsAreSnapshots pins the trigger row contract of the
// package comment and the order triggers run in.
func TestTriggerRowsAreSnapshots(t *testing.T) {
	salary := func(db *DB, empid string) data.Value {
		t.Helper()
		res := mustExec(t, db, "SELECT salary FROM employees WHERE empid = '"+empid+"'")
		if len(res.Rows) != 1 {
			t.Fatalf("%s: rows = %v", empid, res.Rows)
		}
		return res.Rows[0][0]
	}

	// Rows a trigger keeps do not change under later statements on the key.
	db := newEmployees(t)
	var kept [][2]Row
	if _, err := db.RegisterTrigger("employees", func(_ TriggerOp, _ string, old, new Row) {
		kept = append(kept, [2]Row{old, new})
	}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "UPDATE employees SET salary = 101 WHERE empid = 'e1'")
	mustExec(t, db, "UPDATE employees SET salary = 102 WHERE empid = 'e1'")
	mustExec(t, db, "UPDATE employees SET empid = 'e9' WHERE empid = 'e1'")
	mustExec(t, db, "DELETE FROM employees WHERE empid = 'e9'")
	want := [][2]string{{"100", "101"}, {"101", "102"}, {"102", "102"}, {"102", ""}}
	if len(kept) != len(want) {
		t.Fatalf("fires = %d, want %d", len(kept), len(want))
	}
	for i, w := range want {
		for side, r := range kept[i] {
			got := ""
			if r != nil {
				got = r[1].String()
			}
			if got != w[side] {
				t.Errorf("fire %d side %d: salary %q, want %q", i, side, got, w[side])
			}
		}
	}

	// Writing into handed rows does not reach the table.
	db = newEmployees(t)
	if _, err := db.RegisterTrigger("employees", func(_ TriggerOp, _ string, old, new Row) {
		for _, r := range []Row{old, new} {
			if r != nil {
				r[1] = data.NewInt(-1)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "INSERT INTO employees (empid, salary, dept) VALUES ('e4', 400, 'hr')")
	mustExec(t, db, "UPDATE employees SET dept = 'ops' WHERE empid = 'e2'")
	mustExec(t, db, "UPDATE employees SET salary = 301 WHERE empid = 'e3'")
	for empid, w := range map[string]int64{"e4": 400, "e2": 200, "e3": 301} {
		if got := salary(db, empid); !got.Equal(data.NewInt(w)) {
			t.Errorf("%s: salary %s after a trigger wrote its rows, want %d", empid, got, w)
		}
	}

	// Triggers run in registration order; a re-registered one goes last,
	// and cancelling twice is harmless.
	db = newEmployees(t)
	var order []string
	reg := func(name string) func() {
		cancel, err := db.RegisterTrigger("employees", func(TriggerOp, string, Row, Row) { order = append(order, name) })
		if err != nil {
			t.Fatal(err)
		}
		return cancel
	}
	cancelA := reg("A")
	reg("B")
	reg("C")
	cancelA()
	cancelA()
	reg("A")
	mustExec(t, db, "UPDATE employees SET salary = 1 WHERE empid = 'e1'")
	if got := strings.Join(order, ""); got != "BCA" {
		t.Fatalf("order = %s, want BCA", got)
	}

	// A trigger that cancels itself during a multi-row UPDATE still runs
	// for every row of that statement, and for none of the next.
	db = newEmployees(t)
	order = nil
	var cancelS func()
	cancelS, err := db.RegisterTrigger("employees", func(_ TriggerOp, _ string, _, new Row) {
		order = append(order, "S"+new[0].Str())
		cancelS()
	})
	if err != nil {
		t.Fatal(err)
	}
	reg("T")
	mustExec(t, db, "UPDATE employees SET salary = 7 WHERE dept = 'eng'")
	mustExec(t, db, "UPDATE employees SET salary = 8 WHERE dept = 'eng'")
	if got := strings.Join(order, " "); got != "Se2 T Se3 T T T" {
		t.Fatalf("order = %s, want Se2 T Se3 T T T", got)
	}
}

// TestTriggerRegistryConcurrent: statements fire a table's triggers while
// other goroutines register and cancel triggers on it.  Run under -race,
// it checks that a statement's snapshot is never written after it is taken.
func TestTriggerRegistryConcurrent(t *testing.T) {
	db := newEmployees(t)
	var fired atomic.Int64
	if _, err := db.RegisterTrigger("employees", func(TriggerOp, string, Row, Row) { fired.Add(1) }); err != nil {
		t.Fatal(err)
	}
	const rounds = 200
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				cancel, err := db.RegisterTrigger("employees", func(TriggerOp, string, Row, Row) {})
				if err != nil {
					t.Error(err)
					return
				}
				cancel()
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := db.Exec("UPDATE employees SET salary = 1 WHERE dept = 'eng'"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := fired.Load(); got != 2*rounds*2 {
		t.Fatalf("first trigger fired %d times, want %d", got, 2*rounds*2)
	}
}

// TestExecConcurrentStatements: four goroutines share one DB, and so the
// buffer an UPDATE parses into.  Each owns three rows and runs keyed and
// multi-row UPDATEs and SELECTs with SET and WHERE lists of its own, some
// longer than the buffer holds; every Result and every trigger's rows must
// be its own statement's.  Run under -race.
func TestExecConcurrentStatements(t *testing.T) {
	const workers, rounds = 4, 100
	cols := []string{"k", "g", "a", "b", "c"}
	type set struct {
		col int
		v   data.Value
	}
	type fire struct{ old, new Row }
	db := New("c")
	mustExec(t, db, "CREATE TABLE w (k INT, g INT, a INT, b INT, c TEXT, PRIMARY KEY (k))")
	var model [workers][3]Row
	for g := range model {
		for j := range model[g] {
			model[g][j] = Row{data.NewInt(int64(10*g + j)), data.NewInt(int64(g)), data.NewInt(0), data.NewInt(0), data.NewString("")}
			mustExec(t, db, fmt.Sprintf("INSERT INTO w VALUES (%d, %d, 0, 0, '')", 10*g+j, g))
		}
	}
	// A trigger runs in the goroutine whose statement fired it, and each
	// goroutine's rows carry its number in g.
	var fired [workers][]fire
	if _, err := db.RegisterTrigger("w", func(_ TriggerOp, _ string, old, new Row) {
		g := new[1].Int()
		fired[g] = append(fired[g], fire{old, new})
	}); err != nil {
		t.Fatal(err)
	}
	run := func(g int) error {
		check := func(sql string, want Result, wantFires []fire) error {
			fired[g] = nil
			got, err := db.Exec(sql)
			if err != nil {
				return fmt.Errorf("%s: %v", sql, err)
			}
			if !reflect.DeepEqual(got, want) {
				return fmt.Errorf("%s: result %v, want %v", sql, got, want)
			}
			if !reflect.DeepEqual(fired[g], wantFires) {
				return fmt.Errorf("%s: fired %v, want %v", sql, fired[g], wantFires)
			}
			return nil
		}
		rows := &model[g]
		for i := 0; i < rounds; i++ {
			j := i % 3
			k, n := data.NewInt(int64(10*g+j)), data.NewInt(int64(i))
			tag := data.NewString(fmt.Sprintf("g%di%d", g, i))
			sets := [workers][]set{
				{{2, n}},
				{{2, n}, {4, tag}},
				{{4, tag}, {3, n}, {2, n}},
				{{3, n}, {2, n}, {4, tag}, {1, data.NewInt(3)}, {0, k}},
			}[g]
			where := [workers]string{
				"k = %d",
				"k = %d AND g = 1",
				"g = 2 AND k = %d AND a >= 0",
				"k = %d AND g = 3 AND a >= 0 AND b >= 0 AND c <> 'none'",
			}[g]
			sql := "UPDATE w SET "
			old, nw := rows[j], rows[j].Clone()
			for x, s := range sets {
				if x > 0 {
					sql += ", "
				}
				sql += cols[s.col] + " = " + quoteSQL(s.v)
				nw[s.col] = s.v
			}
			sql += " WHERE " + fmt.Sprintf(where, 10*g+j)
			rows[j] = nw
			if err := check(sql, Result{Affected: 1}, []fire{{old, nw}}); err != nil {
				return err
			}

			b := data.NewInt(int64(1000 + i))
			var all []fire
			for j := range rows {
				nw := rows[j].Clone()
				nw[3] = b
				all = append(all, fire{rows[j], nw})
				rows[j] = nw
			}
			sql = fmt.Sprintf("UPDATE w SET b = %d WHERE g = %d AND k >= %d AND k <= %d", 1000+i, g, 10*g, 10*g+2)
			if err := check(sql, Result{Affected: 3}, all); err != nil {
				return err
			}

			sql = fmt.Sprintf("SELECT c, a FROM w WHERE k = %d", 10*g+j)
			want := Result{Columns: []string{"c", "a"}, Rows: []Row{{rows[j][4], rows[j][2]}}, Affected: 1}
			if err := check(sql, want, nil); err != nil {
				return err
			}
			want = Result{Columns: cols, Rows: rows[:], Affected: 3}
			if err := check(fmt.Sprintf("SELECT * FROM w WHERE g = %d", g), want, nil); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		go func() { errs <- run(g) }()
	}
	for g := 0; g < workers; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestStoredTextIsNotTheStatement: the lexer hands out quoted literals as
// substrings of the statement, so a TEXT cell written by INSERT or UPDATE
// must be a copy, or the row would keep the whole statement alive.
func TestStoredTextIsNotTheStatement(t *testing.T) {
	inside := func(s, stmt string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		lo := uintptr(unsafe.Pointer(unsafe.StringData(stmt)))
		return p >= lo && p < lo+uintptr(len(stmt))
	}
	db := newEmployees(t)
	for _, stmt := range []string{
		"INSERT INTO employees (empid, salary, dept) VALUES ('e4', 400, 'hr')",
		"UPDATE employees SET dept = 'ops' WHERE empid = 'e4'",
	} {
		mustExec(t, db, stmt)
		res := mustExec(t, db, "SELECT empid, dept FROM employees WHERE empid = 'e4'")
		if len(res.Rows) != 1 {
			t.Fatalf("rows = %v", res.Rows)
		}
		for _, v := range res.Rows[0] {
			if inside(v.Str(), stmt) {
				t.Errorf("%s: stored %q points into the statement", stmt, v.Str())
			}
		}
	}
}

// TestExecAllocs pins the allocations of the two statements a translator
// runs per propagated update: an UPDATE by primary key with a trigger
// registered, and a SELECT by primary key.
func TestExecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	db := newEmployees(t)
	fired := 0
	if _, err := db.RegisterTrigger("employees", func(TriggerOp, string, Row, Row) { fired++ }); err != nil {
		t.Fatal(err)
	}
	updates := [2]string{
		"UPDATE employees SET salary = 1234 WHERE empid = 'e2'",
		"UPDATE employees SET salary = 5678 WHERE empid = 'e2'",
	}
	n := 0
	for _, c := range []struct {
		name string
		max  float64
		run  func()
	}{
		{"update", 1, func() {
			n++
			if res, err := db.Exec(updates[n%2]); err != nil || res.Affected != 1 {
				t.Fatalf("update: %v, %v", res, err)
			}
		}},
		{"select", 7, func() {
			if res, err := db.Exec("SELECT salary FROM employees WHERE empid = 'e2'"); err != nil || len(res.Rows) != 1 {
				t.Fatalf("select: %v, %v", res, err)
			}
		}},
	} {
		if got := testing.AllocsPerRun(200, c.run); got > c.max {
			t.Errorf("%s: %.1f allocs per Exec, budget %.0f", c.name, got, c.max)
		} else {
			t.Logf("%s: %.1f allocs per Exec (budget %.0f)", c.name, got, c.max)
		}
	}
	if fired == 0 {
		t.Fatal("trigger never fired")
	}
}

func TestTriggerReentrancy(t *testing.T) {
	// A trigger that issues another statement must not deadlock (triggers
	// fire outside the engine lock).
	db := New("t")
	mustExec(t, db, "CREATE TABLE a (k INT, PRIMARY KEY (k))")
	mustExec(t, db, "CREATE TABLE audit (k INT)")
	_, err := db.RegisterTrigger("a", func(op TriggerOp, tbl string, old, new Row) {
		if op == TrigInsert {
			if _, err := db.Exec("INSERT INTO audit VALUES (1)"); err != nil {
				t.Errorf("reentrant exec: %v", err)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "INSERT INTO a VALUES (1)")
	if n := len(mustExec(t, db, "SELECT * FROM audit").Rows); n != 1 {
		t.Fatalf("audit rows = %d", n)
	}
}

func TestErrorsAndDrop(t *testing.T) {
	db := New("t")
	if _, err := db.Exec("SELECT * FROM missing"); !errors.Is(err, ris.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	mustExec(t, db, "CREATE TABLE x (a INT)")
	if _, err := db.Exec("CREATE TABLE x (a INT)"); err == nil {
		t.Fatal("duplicate create succeeded")
	}
	if _, err := db.Exec("SELECT nope FROM x"); err == nil {
		t.Fatal("unknown column succeeded")
	}
	if _, err := db.Exec("INSERT INTO x (nope) VALUES (1)"); err == nil {
		t.Fatal("insert into unknown column succeeded")
	}
	mustExec(t, db, "DROP TABLE x")
	if _, err := db.Exec("DROP TABLE x"); !errors.Is(err, ris.ErrNotFound) {
		t.Fatalf("double drop err = %v", err)
	}
	if _, err := db.RegisterTrigger("x", nil); !errors.Is(err, ris.ErrNotFound) {
		t.Fatalf("trigger on missing table err = %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"BOGUS things",
		"CREATE TABLE",
		"CREATE TABLE t ()",
		"CREATE TABLE t (a WIBBLE)",
		"CREATE TABLE t (a INT, PRIMARY KEY (zz))", // checked at exec
		"INSERT x VALUES (1)",
		"INSERT INTO t VALUES",
		"SELECT FROM t",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t WHERE a LIKE 'x'",
		"UPDATE t",
		"DELETE t",
		"SELECT a FROM t extra stuff",
		"INSERT INTO t VALUES ('unterminated)",
	}
	db := New("t")
	for _, sql := range bad {
		if _, err := db.Exec(sql); err == nil {
			t.Errorf("Exec(%q) succeeded", sql)
		}
	}
}

func TestCaseInsensitivity(t *testing.T) {
	db := New("t")
	mustExec(t, db, "create table People (Name TEXT, Age int, primary key (name))")
	mustExec(t, db, "insert into people (NAME, age) values ('ann', 30)")
	res := mustExec(t, db, "SELECT AGE FROM PEOPLE WHERE name = 'ann'")
	if len(res.Rows) != 1 || !res.Rows[0][0].Equal(data.NewInt(30)) {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Reported column names keep declared casing.
	if res.Columns[0] != "Age" {
		t.Fatalf("columns = %v", res.Columns)
	}
}

func TestStringEscaping(t *testing.T) {
	db := New("t")
	mustExec(t, db, "CREATE TABLE s (v TEXT)")
	mustExec(t, db, "INSERT INTO s VALUES ('it''s')")
	res := mustExec(t, db, "SELECT v FROM s WHERE v = 'it''s'")
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "it's" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

// quoteSQL renders v as AppendSQL does, as a string.
func quoteSQL(v data.Value) string { return string(AppendSQL(nil, v)) }

func TestAppendSQL(t *testing.T) {
	cases := map[string]data.Value{
		"NULL":    data.NullValue,
		"TRUE":    data.NewBool(true),
		"FALSE":   data.NewBool(false),
		"42":      data.NewInt(42),
		"3.5":     data.NewFloat(3.5),
		"'x'":     data.NewString("x"),
		"'it''s'": data.NewString("it's"),
	}
	for want, v := range cases {
		if got := quoteSQL(v); got != want {
			t.Errorf("AppendSQL(%s) = %q, want %q", v, got, want)
		}
	}
}

// Property: a value round-trips through AppendSQL + INSERT + SELECT.
func TestQuickValueRoundTrip(t *testing.T) {
	db := New("t")
	mustExec(t, db, "CREATE TABLE rt (k INT, v TEXT, PRIMARY KEY (k))")
	k := int64(0)
	f := func(s string) bool {
		if strings.ContainsRune(s, 0) {
			return true // NUL not representable in our line protocols anyway
		}
		k++
		ins := "INSERT INTO rt (k, v) VALUES (" + quoteSQL(data.NewInt(k)) + ", " + quoteSQL(data.NewString(s)) + ")"
		if _, err := db.Exec(ins); err != nil {
			return false
		}
		sel := "SELECT v FROM rt WHERE k = " + quoteSQL(data.NewInt(k))
		res, err := db.Exec(sel)
		if err != nil || len(res.Rows) != 1 {
			return false
		}
		return res.Rows[0][0].Str() == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: WHERE equality on the PK returns exactly the inserted row.
func TestQuickPKLookup(t *testing.T) {
	f := func(keys []int64) bool {
		db := New("q")
		if _, err := db.Exec("CREATE TABLE t (k INT, PRIMARY KEY (k))"); err != nil {
			return false
		}
		seen := map[int64]bool{}
		for _, k := range keys {
			_, err := db.Exec("INSERT INTO t VALUES (" + data.NewInt(k).String() + ")")
			if seen[k] {
				if err == nil {
					return false // dup must fail
				}
				continue
			}
			if err != nil {
				return false
			}
			seen[k] = true
		}
		for k := range seen {
			res, err := db.Exec("SELECT k FROM t WHERE k = " + data.NewInt(k).String())
			if err != nil || len(res.Rows) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPKFastPathSemantics(t *testing.T) {
	db := newEmployees(t)
	// PK equality with an extra non-matching condition: no rows.
	res := mustExec(t, db, "SELECT empid FROM employees WHERE empid = 'e1' AND salary > 999")
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// PK equality on a missing key.
	res = mustExec(t, db, "SELECT empid FROM employees WHERE empid = 'nobody'")
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Update and delete through the fast path.
	if r := mustExec(t, db, "UPDATE employees SET salary = 1 WHERE empid = 'e2' AND dept = 'eng'"); r.Affected != 1 {
		t.Fatalf("affected = %d", r.Affected)
	}
	if r := mustExec(t, db, "DELETE FROM employees WHERE empid = 'e2'"); r.Affected != 1 {
		t.Fatalf("affected = %d", r.Affected)
	}
	// Numeric coercion in the key: an INT pk matched by a float literal.
	mustExec(t, db, "CREATE TABLE nums (k INT, v TEXT, PRIMARY KEY (k))")
	mustExec(t, db, "INSERT INTO nums VALUES (5, 'x')")
	res = mustExec(t, db, "SELECT v FROM nums WHERE k = 5.0")
	if len(res.Rows) != 1 {
		t.Fatalf("float-literal PK lookup rows = %v", res.Rows)
	}
	// Non-equality on the PK falls back to a scan.
	res = mustExec(t, db, "SELECT empid FROM employees WHERE empid >= 'e1'")
	if len(res.Rows) != 2 {
		t.Fatalf("range rows = %v", res.Rows)
	}
}

// pkLookup returns the key appendPK renders, as a string.
func (t *table) pkLookup(conds []Cond) (string, bool) {
	key, ok := t.appendPK(nil, conds)
	return string(key), ok
}

// TestPKFastPathMatchesScan: an equality on the key finds what the same
// bounds as a range find.  A FLOAT literal against an INT key (-0.0,
// 10000000000000000.0) renders to no stored row's key, but Value.Equal,
// which a scan applies, matches it, so such a literal must scan.
func TestPKFastPathMatchesScan(t *testing.T) {
	db := New("q")
	mustExec(t, db, "CREATE TABLE nums (k INT, v TEXT, PRIMARY KEY (k))")
	mustExec(t, db, "INSERT INTO nums VALUES (0, 'zero')")
	mustExec(t, db, "INSERT INTO nums VALUES (10000000000000000, 'big')")
	for _, c := range []struct{ lit, v string }{
		{"-0.0", "zero"},
		{"10000000000000000.0", "big"},
	} {
		eq := mustExec(t, db, "SELECT v FROM nums WHERE k = "+c.lit)
		rng := mustExec(t, db, "SELECT v FROM nums WHERE k >= "+c.lit+" AND k <= "+c.lit)
		if len(eq.Rows) != 1 || eq.Rows[0][0].Str() != c.v || len(rng.Rows) != 1 || rng.Rows[0][0].Str() != c.v {
			t.Errorf("k = %s: rows %v, range rows %v; want one row %q", c.lit, eq.Rows, rng.Rows, c.v)
		}
	}
	if r := mustExec(t, db, "UPDATE nums SET v = 'z' WHERE k = -0.0"); r.Affected != 1 {
		t.Errorf("UPDATE WHERE k = -0.0 affected %d rows, want 1", r.Affected)
	}
	if res := mustExec(t, db, "SELECT v FROM nums WHERE k = 0"); len(res.Rows) != 1 || res.Rows[0][0].Str() != "z" {
		t.Errorf("after the UPDATE, k = 0 holds %v, want z", res.Rows)
	}
}

// TestPKLookupExactBeyondFloat: two INT keys that round to one float64
// are two rows, and an equality on one key touches only its row.
func TestPKLookupExactBeyondFloat(t *testing.T) {
	db := New("q")
	mustExec(t, db, "CREATE TABLE nums (k INT, v TEXT, PRIMARY KEY (k))")
	mustExec(t, db, "INSERT INTO nums VALUES (10000000000000000, 'even')")
	mustExec(t, db, "INSERT INTO nums VALUES (10000000000000001, 'odd')")
	res := mustExec(t, db, "SELECT v FROM nums WHERE k = 10000000000000000")
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "even" {
		t.Fatalf("SELECT k = 10^16: rows %v, want one row even", res.Rows)
	}
	if r := mustExec(t, db, "UPDATE nums SET v = 'x' WHERE k = 10000000000000000"); r.Affected != 1 {
		t.Fatalf("UPDATE k = 10^16 affected %d rows, want 1", r.Affected)
	}
	if res := mustExec(t, db, "SELECT v FROM nums WHERE k = 10000000000000001"); len(res.Rows) != 1 || res.Rows[0][0].Str() != "odd" {
		t.Fatalf("after the UPDATE, k = 10^16+1 holds %v, want odd", res.Rows)
	}
}

// TestPKLookupMultiColumn: a WHERE that pins every column of a two-column
// key finds its row by the text keyFor stored, whatever the order of the
// conditions; pinning one column scans.
func TestPKLookupMultiColumn(t *testing.T) {
	db := New("q")
	mustExec(t, db, "CREATE TABLE grid (x INT, y TEXT, v INT, PRIMARY KEY (x, y))")
	mustExec(t, db, "INSERT INTO grid VALUES (1, 'a', 10)")
	mustExec(t, db, "INSERT INTO grid VALUES (1, 'b', 11)")
	mustExec(t, db, "INSERT INTO grid VALUES (2, 'a', 20)")
	tb := db.tables["grid"]
	for key, e := range tb.rows {
		row := e.row
		for _, conds := range [][]Cond{
			{{Column: "x", Op: "=", Value: row[0]}, {Column: "y", Op: "=", Value: row[1]}},
			{{Column: "Y", Op: "=", Value: row[1]}, {Column: "v", Op: ">", Value: data.NewInt(0)}, {Column: "X", Op: "=", Value: row[0]}},
		} {
			if got, ok := tb.pkLookup(conds); !ok || got != key {
				t.Errorf("pkLookup(%v) = %q, %v; want %q", conds, got, ok, key)
			}
		}
	}
	// The first equality on a column decides, a NULL one included.
	x1, x2, ya := Cond{Column: "x", Op: "=", Value: data.NewInt(1)}, Cond{Column: "x", Op: "=", Value: data.NewInt(2)}, Cond{Column: "y", Op: "=", Value: data.NewString("a")}
	xNull := Cond{Column: "x", Op: "=", Value: data.NullValue}
	want, err := tb.keyFor(Row{data.NewInt(1), data.NewString("a"), data.NullValue})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := tb.pkLookup([]Cond{x1, ya, x2}); !ok || got != want {
		t.Errorf("pkLookup(x=1, y='a', x=2) = %q, %v; want %q", got, ok, want)
	}
	for _, conds := range [][]Cond{{x1}, {xNull, ya}, {xNull, x1, ya}} {
		if got, ok := tb.pkLookup(conds); ok {
			t.Errorf("pkLookup(%v) = %q, want no key", conds, got)
		}
	}
	if r := mustExec(t, db, "UPDATE grid SET v = 12 WHERE y = 'b' AND x = 1"); r.Affected != 1 {
		t.Fatalf("update affected = %d", r.Affected)
	}
	if res := mustExec(t, db, "SELECT v FROM grid WHERE x = 1"); len(res.Rows) != 2 {
		t.Fatalf("one-column rows = %v", res.Rows)
	}
	if r := mustExec(t, db, "DELETE FROM grid WHERE x = 2 AND y = 'a'"); r.Affected != 1 {
		t.Fatalf("delete affected = %d", r.Affected)
	}
}

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}
