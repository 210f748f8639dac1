package relstore

import (
	"fmt"
	"testing"

	"cmtk/internal/data"
)

func benchDB(b *testing.B, rows int) *DB {
	b.Helper()
	db := New("bench")
	if _, err := db.Exec("CREATE TABLE employees (empid TEXT, salary INT, PRIMARY KEY (empid))"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO employees VALUES ('e%d', %d)", i, i)); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

func BenchmarkRelstoreSelectByPK(b *testing.B) {
	db := benchDB(b, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Exec("SELECT salary FROM employees WHERE empid = 'e500'")
		if err != nil || len(res.Rows) != 1 {
			b.Fatal(err)
		}
	}
}

func BenchmarkRelstoreUpdate(b *testing.B) {
	db := benchDB(b, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(fmt.Sprintf("UPDATE employees SET salary = %d WHERE empid = 'e500'", i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRelstoreUpdateWithTrigger(b *testing.B) {
	db := benchDB(b, 1000)
	fired := 0
	cancel, err := db.RegisterTrigger("employees", func(TriggerOp, string, Row, Row) { fired++ })
	if err != nil {
		b.Fatal(err)
	}
	defer cancel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(fmt.Sprintf("UPDATE employees SET salary = %d WHERE empid = 'e500'", i)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if fired == 0 {
		b.Fatal("trigger never fired")
	}
}

func BenchmarkSQLParse(b *testing.B) {
	const q = "UPDATE employees SET salary = 1234 WHERE empid = 'e500' AND salary > 10"
	for i := 0; i < b.N; i++ {
		if _, err := Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendSQL(b *testing.B) {
	v := data.NewString("it's a value with 'quotes'")
	var buf [64]byte
	for i := 0; i < b.N; i++ {
		if len(AppendSQL(buf[:0], v)) == 0 {
			b.Fatal("empty")
		}
	}
}
