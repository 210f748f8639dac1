// Package relstore implements a small in-memory relational database
// engine with a SQL subset and row-level triggers.  It stands in for the
// Sybase and Oracle systems of the paper (Section 4.2): the CM-Translator
// for relational sources speaks to it exclusively through SQL text built
// from CM-RID command templates, and implements Notify interfaces by
// declaring triggers, exactly as the paper describes.
//
// Supported SQL:
//
//	CREATE TABLE t (a INT, b TEXT, c FLOAT, d BOOL, PRIMARY KEY (a))
//	DROP TABLE t
//	INSERT INTO t (a, b) VALUES (1, 'x')
//	SELECT a, b FROM t WHERE a = 1 AND b <> 'y'
//	SELECT * FROM t
//	UPDATE t SET b = 'z' WHERE a = 1
//	DELETE FROM t WHERE a = 1
//
// Comparison operators: = <> != < <= > >=.  Literals: numbers, 'strings'
// (with ” escaping), NULL, TRUE, FALSE.  WHERE conditions are
// conjunctions of column-vs-literal comparisons.
//
// Exec parses a statement under the engine lock and returns its Result by
// value.  An UPDATE parses into storage the DB owns, cleared before the
// lock is released, so a keyed UPDATE costs one allocation: its new row.
//
// Trigger rows: a stored row is never changed in place, only replaced.
// An UPDATE or DELETE hands its triggers the retired row as old; the new
// row of an INSERT or UPDATE is a copy of the stored one, allocated with
// it in one array but not overlapping it.  So a row a trigger keeps never
// changes under it, and writing into one does not change the table.
// Triggers must not rely on any other aliasing: every trigger of a row is
// handed the same two slices.
package relstore

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"cmtk/internal/data"
	"cmtk/internal/ris"
)

// ColType enumerates column types.
type ColType int

// Column types.
const (
	TInt ColType = iota
	TFloat
	TText
	TBool
)

func (t ColType) String() string {
	switch t {
	case TInt:
		return "INT"
	case TFloat:
		return "FLOAT"
	case TText:
		return "TEXT"
	case TBool:
		return "BOOL"
	default:
		return "?"
	}
}

// Column is one column of a table schema.
type Column struct {
	Name string
	Type ColType
}

// Schema describes a table.
type Schema struct {
	Table   string
	Columns []Column
	PK      []string // primary-key column names, possibly empty
}

// Row is one tuple, positionally matching the schema's columns.
type Row []data.Value

// rowPair returns a row of n columns to store and one for its trigger
// copy, cut from one allocation.  The stored row's capacity ends where
// the copy begins, so neither reaches the other.
func rowPair(n int) (stored, trig Row) {
	both := make(Row, 2*n)
	return both[:n:n], both[n:]
}

// TriggerOp distinguishes the mutation kinds visible to triggers.
type TriggerOp int

// Trigger operations.
const (
	TrigInsert TriggerOp = iota
	TrigUpdate
	TrigDelete
)

func (o TriggerOp) String() string {
	switch o {
	case TrigInsert:
		return "INSERT"
	case TrigUpdate:
		return "UPDATE"
	case TrigDelete:
		return "DELETE"
	default:
		return "?"
	}
}

// Trigger is a row-level trigger callback.  old is nil for inserts, new is
// nil for deletes.  Triggers run after the statement commits, outside the
// engine lock, in firing order and, per row, in registration order.  The
// package comment states what a trigger may do with the rows.
type Trigger func(op TriggerOp, table string, old, new Row)

// regTrigger is one registered trigger; id orders registrations.
type regTrigger struct {
	id int64
	fn Trigger
}

// Result is the outcome of executing one statement.
type Result struct {
	Columns  []string
	Rows     []Row
	Affected int
}

// rowEntry is a stored row and the key it is stored under, so a row can
// be stored back, deleted or rekeyed without building its key again.
type rowEntry struct {
	key string
	row Row
}

type table struct {
	schema Schema
	colIdx map[string]int
	pkIdx  []int
	rows   map[string]rowEntry
	nextID int64
}

// DB is the engine.  The zero value is not usable; use New.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*table
	stmt   stmtBuf // the UPDATE being run; guarded by mu
	trigMu sync.Mutex
	// triggers holds each table's triggers in registration order.  A
	// slice is replaced, never written, so a reader may keep it after
	// unlocking trigMu.
	triggers map[string][]regTrigger
	nextTrig int64
}

// New creates an empty database.  The name is its callers' label for it
// (risd's -name, a harness site's database); the database needs none.
func New(name string) *DB {
	return &DB{
		tables:   map[string]*table{},
		triggers: map[string][]regTrigger{},
	}
}

// RegisterTrigger installs a trigger on a table (the moral equivalent of
// CREATE TRIGGER; Section 4.2.1 notes a Sybase CM-Translator declares
// triggers during initialization).  It returns a cancel function.
func (db *DB) RegisterTrigger(tableName string, fn Trigger) (func(), error) {
	key := strings.ToLower(tableName)
	db.mu.RLock()
	_, ok := db.tables[key]
	db.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("relstore: table %s: %w", tableName, ris.ErrNotFound)
	}
	db.trigMu.Lock()
	defer db.trigMu.Unlock()
	id := db.nextTrig
	db.nextTrig++
	trigs := db.triggers[key]
	db.triggers[key] = append(trigs[:len(trigs):len(trigs)], regTrigger{id, fn})
	return func() {
		db.trigMu.Lock()
		defer db.trigMu.Unlock()
		trigs := db.triggers[key]
		if i := slices.IndexFunc(trigs, func(r regTrigger) bool { return r.id == id }); i >= 0 {
			db.triggers[key] = slices.Concat(trigs[:i], trigs[i+1:])
		}
	}, nil
}

// firing is one pending trigger invocation.
type firing struct {
	op       TriggerOp
	table    string
	old, new Row
}

// Exec parses and executes one SQL statement.
func (db *DB) Exec(sql string) (Result, error) {
	var buf [1]firing // a statement that changes one row fires once
	res, fires, err := db.exec(sql, buf[:0])
	if err != nil {
		return Result{}, err
	}
	db.fire(fires)
	return res, nil
}

// exec parses and runs a statement under the engine lock, appending its
// firings to fires.  An UPDATE parses into db.stmt, which is cleared
// before the lock is released, so it holds no statement's text after.
func (db *DB) exec(sql string, fires []firing) (Result, []firing, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	stmt, err := parse(sql, &db.stmt)
	var res Result
	if err == nil {
		res, fires, err = db.run(stmt, fires)
	}
	db.stmt = stmtBuf{}
	return res, fires, err
}

// fire runs the triggers registered when the statement's firings are
// handed over: one snapshot per statement, so a trigger cancelled or
// registered by a trigger takes effect from the next statement.
func (db *DB) fire(fires []firing) {
	if len(fires) == 0 {
		return
	}
	db.trigMu.Lock()
	trigs := db.triggers[strings.ToLower(fires[0].table)] // a statement touches one table
	db.trigMu.Unlock()
	for _, f := range fires {
		for _, tr := range trigs {
			tr.fn(f.op, f.table, f.old, f.new)
		}
	}
}

// run executes a parsed statement; db.mu is held.
func (db *DB) run(stmt Stmt, fires []firing) (Result, []firing, error) {
	switch s := stmt.(type) {
	case *CreateStmt:
		return db.runCreate(s)
	case *DropStmt:
		return db.runDrop(s)
	case *InsertStmt:
		return db.runInsert(s, fires)
	case *SelectStmt:
		return db.runSelect(s)
	case *UpdateStmt:
		return db.runUpdate(s, fires)
	case *DeleteStmt:
		return db.runDelete(s, fires)
	default:
		return Result{}, nil, fmt.Errorf("relstore: unknown statement type %T", stmt)
	}
}

func (db *DB) runCreate(s *CreateStmt) (Result, []firing, error) {
	key := strings.ToLower(s.Schema.Table)
	if _, exists := db.tables[key]; exists {
		return Result{}, nil, fmt.Errorf("relstore: table %s already exists", s.Schema.Table)
	}
	t := &table{
		schema: s.Schema,
		colIdx: map[string]int{},
		rows:   map[string]rowEntry{},
	}
	for i, c := range s.Schema.Columns {
		lc := strings.ToLower(c.Name)
		if _, dup := t.colIdx[lc]; dup {
			return Result{}, nil, fmt.Errorf("relstore: duplicate column %s", c.Name)
		}
		t.colIdx[lc] = i
	}
	for _, pk := range s.Schema.PK {
		idx, ok := t.colIdx[strings.ToLower(pk)]
		if !ok {
			return Result{}, nil, fmt.Errorf("relstore: primary key column %s not in table", pk)
		}
		t.pkIdx = append(t.pkIdx, idx)
	}
	db.tables[key] = t
	return Result{}, nil, nil
}

func (db *DB) runDrop(s *DropStmt) (Result, []firing, error) {
	key := strings.ToLower(s.Table)
	if _, ok := db.tables[key]; !ok {
		return Result{}, nil, fmt.Errorf("relstore: table %s: %w", s.Table, ris.ErrNotFound)
	}
	delete(db.tables, key)
	return Result{}, nil, nil
}

// keyFor returns the key a row is stored under: its primary-key values'
// literals joined by NUL, which no literal contains.
func (t *table) keyFor(r Row) (string, error) {
	if len(t.pkIdx) == 0 {
		return "", nil // caller assigns a rowid
	}
	var buf [64]byte
	key := buf[:0]
	for i, idx := range t.pkIdx {
		if r[idx].IsNull() {
			return "", fmt.Errorf("relstore: null in primary key column %s", t.schema.Columns[idx].Name)
		}
		if i > 0 {
			key = append(key, 0)
		}
		key = r[idx].AppendLiteral(key)
	}
	return string(key), nil
}

// coerce checks/adapts a literal to a column type.  Its result is stored,
// so a string is copied out of the statement text it was lexed from: a
// row must not keep the whole statement alive.
func coerce(v data.Value, ct ColType, col string) (data.Value, error) {
	if v.IsNull() {
		return v, nil
	}
	switch ct {
	case TInt:
		if v.Kind() == data.Int {
			return v, nil
		}
		if f, ok := v.AsFloat(); ok && f == float64(int64(f)) {
			return data.NewInt(int64(f)), nil
		}
	case TFloat:
		if f, ok := v.AsFloat(); ok {
			return data.NewFloat(f), nil
		}
	case TText:
		if v.Kind() == data.String {
			return data.NewString(strings.Clone(v.Str())), nil
		}
	case TBool:
		if v.Kind() == data.Bool {
			return v, nil
		}
	}
	return data.NullValue, fmt.Errorf("relstore: value %s does not fit column %s %s", v, col, ct)
}

func (db *DB) runInsert(s *InsertStmt, fires []firing) (Result, []firing, error) {
	t, ok := db.tables[strings.ToLower(s.Table)]
	if !ok {
		return Result{}, nil, fmt.Errorf("relstore: table %s: %w", s.Table, ris.ErrNotFound)
	}
	row, trig := rowPair(len(t.schema.Columns))
	for i := range row {
		row[i] = data.NullValue
	}
	cols := s.Columns
	if len(cols) == 0 {
		if len(s.Values) != len(t.schema.Columns) {
			return Result{}, nil, fmt.Errorf("relstore: INSERT has %d values for %d columns", len(s.Values), len(t.schema.Columns))
		}
		for _, c := range t.schema.Columns {
			cols = append(cols, c.Name)
		}
	}
	if len(cols) != len(s.Values) {
		return Result{}, nil, fmt.Errorf("relstore: INSERT has %d columns but %d values", len(cols), len(s.Values))
	}
	for i, cn := range cols {
		idx, ok := t.colIdx[strings.ToLower(cn)]
		if !ok {
			return Result{}, nil, fmt.Errorf("relstore: no column %s in %s", cn, s.Table)
		}
		v, err := coerce(s.Values[i], t.schema.Columns[idx].Type, cn)
		if err != nil {
			return Result{}, nil, err
		}
		row[idx] = v
	}
	key, err := t.keyFor(row)
	if err != nil {
		return Result{}, nil, err
	}
	if key == "" {
		key = fmt.Sprintf("\x01rowid:%d", t.nextID)
		t.nextID++
	} else if _, dup := t.rows[key]; dup {
		return Result{}, nil, fmt.Errorf("relstore: duplicate primary key in %s", s.Table)
	}
	t.rows[key] = rowEntry{key, row}
	copy(trig, row)
	return Result{Affected: 1}, append(fires, firing{TrigInsert, t.schema.Table, nil, trig}), nil
}

// matchWhere evaluates the conjunction against a row.
func (t *table) matchWhere(conds []Cond, r Row) (bool, error) {
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

// appendPK appends the key of the one row a WHERE conjunction can match,
// as keyFor renders it, when the conjunction pins every primary-key
// column with an equality — the common translator pattern "WHERE empid =
// $n" — enabling O(1) row access instead of a scan.  The first equality
// on each key column decides.  It pins the row only when every column
// the conjunction names exists, so that no error a scan would report is
// skipped, and only when each key literal has its column's own kind,
// which Value.Equal matches exactly when the literals render alike: an
// INT (Equal compares two Ints exactly), a TEXT string or a BOOL.
// Anything else scans, a FLOAT key too: 0 and -0 are two keys but equal
// values.
func (t *table) appendPK(dst []byte, conds []Cond) ([]byte, bool) {
	if len(t.pkIdx) == 0 {
		return dst, false
	}
	for _, c := range conds {
		if _, ok := t.colIdx[strings.ToLower(c.Column)]; !ok {
			return dst, false
		}
	}
	for i, pk := range t.pkIdx {
		j := slices.IndexFunc(conds, func(c Cond) bool {
			return c.Op == "=" && t.colIdx[strings.ToLower(c.Column)] == pk
		})
		if j < 0 || !exactKey(t.schema.Columns[pk].Type, conds[j].Value) {
			return dst, false
		}
		if i > 0 {
			dst = append(dst, 0)
		}
		dst = conds[j].Value.AppendLiteral(dst)
	}
	return dst, true
}

// exactKey reports whether Value.Equal holds between v and a value of a
// column of type ct exactly when their literals are the same.
func exactKey(ct ColType, v data.Value) bool {
	switch ct {
	case TInt:
		return v.Kind() == data.Int
	case TText:
		return v.Kind() == data.String
	case TBool:
		return v.Kind() == data.Bool
	default:
		return false
	}
}

// candidates returns the rows a statement's WHERE must examine, in key
// order: the one row appendPK pins, returned in hit, else every row.
func (t *table) candidates(conds []Cond, hit *[1]rowEntry) []rowEntry {
	var buf [64]byte
	if key, ok := t.appendPK(buf[:0], conds); ok {
		e, exists := t.rows[string(key)]
		if !exists {
			return nil
		}
		hit[0] = e
		return hit[:]
	}
	es := make([]rowEntry, 0, len(t.rows))
	for _, e := range t.rows {
		es = append(es, e)
	}
	slices.SortFunc(es, func(a, b rowEntry) int { return strings.Compare(a.key, b.key) })
	return es
}

func (db *DB) runSelect(s *SelectStmt) (Result, []firing, error) {
	t, ok := db.tables[strings.ToLower(s.Table)]
	if !ok {
		return Result{}, nil, fmt.Errorf("relstore: table %s: %w", s.Table, ris.ErrNotFound)
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
				return Result{}, nil, fmt.Errorf("relstore: no column %s in %s", cn, s.Table)
			}
			colIdx = append(colIdx, idx)
			colNames = append(colNames, t.schema.Columns[idx].Name)
		}
	}
	res := Result{Columns: colNames}
	var hit [1]rowEntry
	for _, e := range t.candidates(s.Where, &hit) {
		ok, err := t.matchWhere(s.Where, e.row)
		if err != nil {
			return Result{}, nil, err
		}
		if !ok {
			continue
		}
		out := make(Row, len(colIdx))
		for i, idx := range colIdx {
			out[i] = e.row[idx]
		}
		res.Rows = append(res.Rows, out)
	}
	res.Affected = len(res.Rows)
	return res, nil, nil
}

func (db *DB) runUpdate(s *UpdateStmt, fires []firing) (Result, []firing, error) {
	t, ok := db.tables[strings.ToLower(s.Table)]
	if !ok {
		return Result{}, nil, fmt.Errorf("relstore: table %s: %w", s.Table, ris.ErrNotFound)
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
			return Result{}, nil, fmt.Errorf("relstore: no column %s in %s", a.Column, s.Table)
		}
		v, err := coerce(a.Value, t.schema.Columns[idx].Type, a.Column)
		if err != nil {
			return Result{}, nil, err
		}
		sets = append(sets, setOp{idx, v})
		rekeys = rekeys || slices.Contains(t.pkIdx, idx)
	}
	affected := 0
	var hit [1]rowEntry
	for _, e := range t.candidates(s.Where, &hit) {
		ok, err := t.matchWhere(s.Where, e.row)
		if err != nil {
			return Result{}, nil, err
		}
		if !ok {
			continue
		}
		// e.row is replaced below, never written, so triggers get it as is.
		nw, trig := rowPair(len(e.row))
		copy(nw, e.row)
		for _, so := range sets {
			nw[so.idx] = so.v
		}
		key := e.key // no PK column assigned, or no PK: the row keeps its key
		if rekeys {
			if key, err = t.keyFor(nw); err != nil {
				return Result{}, nil, err
			}
		}
		if key != e.key {
			if _, dup := t.rows[key]; dup {
				return Result{}, nil, fmt.Errorf("relstore: update would duplicate primary key in %s", s.Table)
			}
			delete(t.rows, e.key)
		}
		t.rows[key] = rowEntry{key, nw}
		affected++
		copy(trig, nw)
		fires = append(fires, firing{TrigUpdate, t.schema.Table, e.row, trig})
	}
	return Result{Affected: affected}, fires, nil
}

func (db *DB) runDelete(s *DeleteStmt, fires []firing) (Result, []firing, error) {
	t, ok := db.tables[strings.ToLower(s.Table)]
	if !ok {
		return Result{}, nil, fmt.Errorf("relstore: table %s: %w", s.Table, ris.ErrNotFound)
	}
	affected := 0
	var hit [1]rowEntry
	for _, e := range t.candidates(s.Where, &hit) {
		ok, err := t.matchWhere(s.Where, e.row)
		if err != nil {
			return Result{}, nil, err
		}
		if !ok {
			continue
		}
		delete(t.rows, e.key)
		affected++
		fires = append(fires, firing{TrigDelete, t.schema.Table, e.row, nil})
	}
	return Result{Affected: affected}, fires, nil
}
