package relstore

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"cmtk/internal/data"
	"cmtk/internal/ris"
)

// The executor as it was before statements parsed into engine-owned
// storage and rows were stored with their keys, kept verbatim (bar the
// type names) as the oracle FuzzExec holds DB.Exec to, except that
// candidateKeys always scans: a scan is the definition the primary-key
// fast path must match, so pkLookup, which only it called, is left out.
// Statements come from Parse and coerce is shared: neither changed.

// oracleDB is the tables of a DB, without triggers: run returns the
// firings a statement makes.
type oracleDB struct {
	mu     sync.RWMutex
	tables map[string]*oracleTable
}

type oracleTable struct {
	schema Schema
	colIdx map[string]int
	pkIdx  []int
	rows   map[string]Row
	nextID int64
}

func (db *oracleDB) run(stmt Stmt) (*Result, []firing, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	switch s := stmt.(type) {
	case *CreateStmt:
		return db.runCreate(s)
	case *DropStmt:
		return db.runDrop(s)
	case *InsertStmt:
		return db.runInsert(s)
	case *SelectStmt:
		return db.runSelect(s)
	case *UpdateStmt:
		return db.runUpdate(s)
	case *DeleteStmt:
		return db.runDelete(s)
	default:
		return nil, nil, fmt.Errorf("relstore: unknown statement type %T", stmt)
	}
}

func (db *oracleDB) runCreate(s *CreateStmt) (*Result, []firing, error) {
	key := strings.ToLower(s.Schema.Table)
	if _, exists := db.tables[key]; exists {
		return nil, nil, fmt.Errorf("relstore: table %s already exists", s.Schema.Table)
	}
	t := &oracleTable{
		schema: s.Schema,
		colIdx: map[string]int{},
		rows:   map[string]Row{},
	}
	for i, c := range s.Schema.Columns {
		lc := strings.ToLower(c.Name)
		if _, dup := t.colIdx[lc]; dup {
			return nil, nil, fmt.Errorf("relstore: duplicate column %s", c.Name)
		}
		t.colIdx[lc] = i
	}
	for _, pk := range s.Schema.PK {
		idx, ok := t.colIdx[strings.ToLower(pk)]
		if !ok {
			return nil, nil, fmt.Errorf("relstore: primary key column %s not in table", pk)
		}
		t.pkIdx = append(t.pkIdx, idx)
	}
	db.tables[key] = t
	return &Result{}, nil, nil
}

func (db *oracleDB) runDrop(s *DropStmt) (*Result, []firing, error) {
	key := strings.ToLower(s.Table)
	if _, ok := db.tables[key]; !ok {
		return nil, nil, fmt.Errorf("relstore: table %s: %w", s.Table, ris.ErrNotFound)
	}
	delete(db.tables, key)
	return &Result{}, nil, nil
}

func (t *oracleTable) keyFor(r Row) (string, error) {
	if len(t.pkIdx) == 0 {
		return "", nil // caller assigns a rowid
	}
	parts := make([]string, len(t.pkIdx))
	for i, idx := range t.pkIdx {
		if r[idx].IsNull() {
			return "", fmt.Errorf("relstore: null in primary key column %s", t.schema.Columns[idx].Name)
		}
		parts[i] = r[idx].String()
	}
	return strings.Join(parts, "\x00"), nil
}

func (db *oracleDB) runInsert(s *InsertStmt) (*Result, []firing, error) {
	t, ok := db.tables[strings.ToLower(s.Table)]
	if !ok {
		return nil, nil, fmt.Errorf("relstore: table %s: %w", s.Table, ris.ErrNotFound)
	}
	row := make(Row, len(t.schema.Columns))
	for i := range row {
		row[i] = data.NullValue
	}
	cols := s.Columns
	if len(cols) == 0 {
		if len(s.Values) != len(t.schema.Columns) {
			return nil, nil, fmt.Errorf("relstore: INSERT has %d values for %d columns", len(s.Values), len(t.schema.Columns))
		}
		for _, c := range t.schema.Columns {
			cols = append(cols, c.Name)
		}
	}
	if len(cols) != len(s.Values) {
		return nil, nil, fmt.Errorf("relstore: INSERT has %d columns but %d values", len(cols), len(s.Values))
	}
	for i, cn := range cols {
		idx, ok := t.colIdx[strings.ToLower(cn)]
		if !ok {
			return nil, nil, fmt.Errorf("relstore: no column %s in %s", cn, s.Table)
		}
		v, err := coerce(s.Values[i], t.schema.Columns[idx].Type, cn)
		if err != nil {
			return nil, nil, err
		}
		row[idx] = v
	}
	key, err := t.keyFor(row)
	if err != nil {
		return nil, nil, err
	}
	if key == "" {
		key = fmt.Sprintf("\x01rowid:%d", t.nextID)
		t.nextID++
	} else if _, dup := t.rows[key]; dup {
		return nil, nil, fmt.Errorf("relstore: duplicate primary key in %s", s.Table)
	}
	t.rows[key] = row
	return &Result{Affected: 1}, []firing{{TrigInsert, t.schema.Table, nil, row.Clone()}}, nil
}

// matchWhere evaluates the conjunction against a row.
func (t *oracleTable) matchWhere(conds []Cond, r Row) (bool, error) {
	for _, c := range conds {
		idx, ok := t.colIdx[strings.ToLower(c.Column)]
		if !ok {
			return false, fmt.Errorf("relstore: no column %s in %s", c.Column, t.schema.Table)
		}
		v := r[idx]
		switch c.Op {
		case "=":
			if !v.Equal(c.Value) {
				return false, nil
			}
		case "<>", "!=":
			if v.Equal(c.Value) {
				return false, nil
			}
		default:
			cmp, ok := v.Compare(c.Value)
			if !ok {
				return false, nil
			}
			switch c.Op {
			case "<":
				if cmp >= 0 {
					return false, nil
				}
			case "<=":
				if cmp > 0 {
					return false, nil
				}
			case ">":
				if cmp <= 0 {
					return false, nil
				}
			case ">=":
				if cmp < 0 {
					return false, nil
				}
			default:
				return false, fmt.Errorf("relstore: unknown operator %q", c.Op)
			}
		}
	}
	return true, nil
}

// candidateKeys returns the keys a statement's WHERE must examine, in
// deterministic order: a single key on a full PK equality, else all rows.
func (t *oracleTable) candidateKeys(conds []Cond) []string {
	return t.sortedKeys() // the scan the primary-key fast path must match
}

// sortedKeys iterates rows deterministically.
func (t *oracleTable) sortedKeys() []string {
	ks := make([]string, 0, len(t.rows))
	for k := range t.rows {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func (db *oracleDB) runSelect(s *SelectStmt) (*Result, []firing, error) {
	t, ok := db.tables[strings.ToLower(s.Table)]
	if !ok {
		return nil, nil, fmt.Errorf("relstore: table %s: %w", s.Table, ris.ErrNotFound)
	}
	var colIdx []int
	var colNames []string
	if s.Star {
		for i, c := range t.schema.Columns {
			colIdx = append(colIdx, i)
			colNames = append(colNames, c.Name)
		}
	} else {
		for _, cn := range s.Columns {
			idx, ok := t.colIdx[strings.ToLower(cn)]
			if !ok {
				return nil, nil, fmt.Errorf("relstore: no column %s in %s", cn, s.Table)
			}
			colIdx = append(colIdx, idx)
			colNames = append(colNames, t.schema.Columns[idx].Name)
		}
	}
	res := &Result{Columns: colNames}
	for _, k := range t.candidateKeys(s.Where) {
		r := t.rows[k]
		ok, err := t.matchWhere(s.Where, r)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			continue
		}
		out := make(Row, len(colIdx))
		for i, idx := range colIdx {
			out[i] = r[idx]
		}
		res.Rows = append(res.Rows, out)
	}
	res.Affected = len(res.Rows)
	return res, nil, nil
}

func (db *oracleDB) runUpdate(s *UpdateStmt) (*Result, []firing, error) {
	t, ok := db.tables[strings.ToLower(s.Table)]
	if !ok {
		return nil, nil, fmt.Errorf("relstore: table %s: %w", s.Table, ris.ErrNotFound)
	}
	// Pre-validate SET columns.
	type setOp struct {
		idx int
		v   data.Value
	}
	var setBuf [8]setOp // a longer SET list spills to the heap
	sets := setBuf[:0]
	rekeys := false // some SET assigns a primary-key column
	for _, a := range s.Sets {
		idx, ok := t.colIdx[strings.ToLower(a.Column)]
		if !ok {
			return nil, nil, fmt.Errorf("relstore: no column %s in %s", a.Column, s.Table)
		}
		v, err := coerce(a.Value, t.schema.Columns[idx].Type, a.Column)
		if err != nil {
			return nil, nil, err
		}
		sets = append(sets, setOp{idx, v})
		rekeys = rekeys || slices.Contains(t.pkIdx, idx)
	}
	var fires []firing
	affected := 0
	for _, k := range t.candidateKeys(s.Where) {
		old := t.rows[k]
		ok, err := t.matchWhere(s.Where, old)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			continue
		}
		// old is replaced below, never written, so triggers get it as is.
		nw := old.Clone()
		for _, so := range sets {
			nw[so.idx] = so.v
		}
		newKey := k // no PK column assigned, or no PK: the row keeps its key
		if rekeys {
			if newKey, err = t.keyFor(nw); err != nil {
				return nil, nil, err
			}
		}
		if newKey != k {
			if _, dup := t.rows[newKey]; dup {
				return nil, nil, fmt.Errorf("relstore: update would duplicate primary key in %s", s.Table)
			}
			delete(t.rows, k)
		}
		t.rows[newKey] = nw
		affected++
		fires = append(fires, firing{TrigUpdate, t.schema.Table, old, nw.Clone()})
	}
	return &Result{Affected: affected}, fires, nil
}

func (db *oracleDB) runDelete(s *DeleteStmt) (*Result, []firing, error) {
	t, ok := db.tables[strings.ToLower(s.Table)]
	if !ok {
		return nil, nil, fmt.Errorf("relstore: table %s: %w", s.Table, ris.ErrNotFound)
	}
	var fires []firing
	affected := 0
	for _, k := range t.candidateKeys(s.Where) {
		r := t.rows[k]
		ok, err := t.matchWhere(s.Where, r)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			continue
		}
		delete(t.rows, k)
		affected++
		fires = append(fires, firing{TrigDelete, t.schema.Table, r, nil})
	}
	return &Result{Affected: affected}, fires, nil
}

// execSetup creates the tables FuzzExec's scripts run over, an INT key,
// a TEXT key and a two-column key, with a few rows each.
var execSetup = []string{
	"CREATE TABLE nums (k INT, v TEXT, f FLOAT, PRIMARY KEY (k))",
	"CREATE TABLE names (id TEXT, n INT, ok BOOL, PRIMARY KEY (id))",
	"CREATE TABLE grid (x INT, y TEXT, v INT, PRIMARY KEY (x, y))",
	"INSERT INTO nums VALUES (0, 'zero', 0.0)",
	"INSERT INTO nums VALUES (1, 'one', -0.5)",
	"INSERT INTO nums VALUES (10000000000000000, 'big', 1.5)",
	"INSERT INTO names VALUES ('a', 1, TRUE)",
	"INSERT INTO names VALUES ('b', 2, FALSE)",
	"INSERT INTO names VALUES ('it''s', 3, NULL)",
	"INSERT INTO grid VALUES (1, 'a', 10)",
	"INSERT INTO grid VALUES (1, 'b', 11)",
	"INSERT INTO grid VALUES (2, 'a', 20)",
}

// FuzzExec: DB.Exec agrees with the oracle executor on any script, one
// statement a line, at most 16, run after execSetup.  Per statement both
// give the same error text, Result and trigger firings (op, old row, new
// row), and the tables hold the same rows under the same keys.  The
// committed corpus (testdata/fuzz/FuzzExec) holds -0.0 and
// 10000000000000000.0 against an INT key, a rekey, a rekey onto an
// existing key, multi-row UPDATEs, a SET list and a WHERE longer than the
// parse buffer holds, and an unknown column beside a key equality.
func FuzzExec(f *testing.F) {
	f.Fuzz(func(t *testing.T, script string) {
		lines := strings.Split(script, "\n")
		if len(lines) > 16 {
			lines = lines[:16]
		}
		db, oracle := New("fuzz"), &oracleDB{tables: map[string]*oracleTable{}}
		var fired []firing
		for i, sql := range append(execSetup[:len(execSetup):len(execSetup)], lines...) {
			if i == 3 {
				for _, tb := range []string{"nums", "names", "grid"} {
					if _, err := db.RegisterTrigger(tb, func(op TriggerOp, table string, old, new Row) {
						fired = append(fired, firing{op, table, old, new})
					}); err != nil {
						t.Fatal(err)
					}
				}
			}
			fired = nil
			got, err := db.Exec(sql)
			var want *Result
			var wantFires []firing
			stmt, werr := Parse(sql)
			if werr == nil {
				want, wantFires, werr = oracle.run(stmt)
			}
			if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
				t.Fatalf("%q: error %v, oracle %v", sql, err, werr)
			}
			if err != nil {
				continue
			}
			// Triggers are registered on the setup tables only.
			wantFires = slices.DeleteFunc(wantFires, func(f firing) bool {
				return !slices.Contains([]string{"nums", "names", "grid"}, strings.ToLower(f.table))
			})
			if !reflect.DeepEqual(got, *want) {
				t.Fatalf("%q: result %v, oracle %v", sql, got, *want)
			}
			if len(fired) != len(wantFires) || len(fired) > 0 && !reflect.DeepEqual(fired, wantFires) {
				t.Fatalf("%q: fired %v, oracle %v", sql, fired, wantFires)
			}
			if len(db.tables) != len(oracle.tables) {
				t.Fatalf("%q: %d tables, oracle %d", sql, len(db.tables), len(oracle.tables))
			}
			for name, ot := range oracle.tables {
				tb := db.tables[name]
				if tb == nil || len(tb.rows) != len(ot.rows) || tb.nextID != ot.nextID {
					t.Fatalf("%q: table %s differs from the oracle's", sql, name)
				}
				for key, row := range ot.rows {
					if e, ok := tb.rows[key]; !ok || e.key != key || !reflect.DeepEqual(e.row, row) {
						t.Fatalf("%q: %s row %q = %v, oracle %v", sql, name, key, e.row, row)
					}
				}
			}
		}
	})
}
