package translator

import (
	"fmt"
	"strings"
	"sync"

	"cmtk/internal/cmi"
	"cmtk/internal/data"
	"cmtk/internal/rid"
	"cmtk/internal/ris"
	"cmtk/internal/ris/relstore"
	"cmtk/internal/rule"
	"cmtk/internal/vclock"
)

// RelSource is the native relational interface the translator consumes:
// SQL text in, results out, plus trigger registration.  Both a local
// *relstore.DB and a remote *server.RelClient satisfy it.
type RelSource interface {
	Exec(sql string) (relstore.Result, error)
	RegisterTrigger(table string, fn relstore.Trigger) (func(), error)
}

// Rel is the CM-Translator for relational sources.
type Rel struct {
	failureHub
	cfg     *rid.Config
	db      RelSource
	mu      sync.Mutex
	cancels []func()
}

// NewRel builds a relational translator from a CM-RID and a source.
// clock may be nil for real time.
func NewRel(cfg *rid.Config, db RelSource, clock vclock.Clock) (*Rel, error) {
	if cfg.Kind != rid.KindRel {
		return nil, fmt.Errorf("translator: config kind %q is not %s", cfg.Kind, rid.KindRel)
	}
	return &Rel{failureHub: newFailureHub(cfg.Site, clock), cfg: cfg, db: db}, nil
}

// Site implements cmi.Interface.
func (t *Rel) Site() string { return t.cfg.Site }

// Statements implements cmi.Interface.
func (t *Rel) Statements() []rule.Rule { return t.cfg.Statements }

// substSQL expands $n and $b in a SQL command template (Section 4.2.1:
// "Our CM-Translator performs the necessary substitution given a
// particular instance of n").  It makes one left-to-right pass over the
// template and never rescans what it put in, so a key or value that
// contains "$b" or "$n" is substituted as written.  The statement is
// built in a stack buffer, so it costs one allocation: the string.
func substSQL(tpl string, item data.ItemName, v data.Value) (string, error) {
	if strings.IndexByte(tpl, '$') < 0 {
		return tpl, nil
	}
	var buf [256]byte
	out := buf[:0]
	for rest := tpl; ; {
		i := strings.IndexByte(rest, '$')
		if i < 0 || i+1 == len(rest) {
			return string(append(out, rest...)), nil
		}
		out = append(out, rest[:i]...)
		switch rest[i+1] {
		case 'n':
			if len(item.Args) != 1 {
				return "", fmt.Errorf("translator: template %q wants $n but item %s has %d arguments", tpl, item, len(item.Args))
			}
			out = relstore.AppendSQL(out, item.Args[0])
		case 'b':
			out = relstore.AppendSQL(out, v)
		default:
			out = append(out, '$')
			rest = rest[i+1:]
			continue
		}
		rest = rest[i+2:]
	}
}

func (t *Rel) binding(item data.ItemName) (*rid.ItemBinding, error) {
	b, ok := t.cfg.Binding(item.Base)
	if !ok {
		return nil, fmt.Errorf("translator: no binding for item %s at site %s", item.Base, t.cfg.Site)
	}
	return b, nil
}

// Read implements cmi.Interface.
func (t *Rel) Read(item data.ItemName) (data.Value, bool, error) {
	t.countOp("read")
	b, err := t.binding(item)
	if err != nil {
		return data.NullValue, false, t.report("read", err)
	}
	q, err := substSQL(b.ReadSQL, item, data.NullValue)
	if err != nil {
		return data.NullValue, false, t.report("read", err)
	}
	res, err := t.db.Exec(q)
	if err != nil {
		return data.NullValue, false, t.report("read", err)
	}
	if len(res.Rows) == 0 {
		return data.NullValue, false, nil
	}
	if len(res.Rows[0]) == 0 {
		return data.NullValue, false, t.report("read", fmt.Errorf("translator: read template %q returned no columns", b.ReadSQL))
	}
	v := res.Rows[0][0]
	if v.IsNull() {
		return data.NullValue, false, nil
	}
	return v, true, nil
}

// Write implements cmi.Interface.  Writing null deletes; an update that
// affects no rows falls back to the insert template when one is bound
// (upsert semantics, so parameterized copy constraints can create rows at
// the replica).
func (t *Rel) Write(item data.ItemName, v data.Value) error {
	t.countOp("write")
	b, err := t.binding(item)
	if err != nil {
		return t.report("write", err)
	}
	if v.IsNull() {
		if b.DeleteSQL == "" {
			return t.report("write", fmt.Errorf("translator: item %s has no delete template: %w", item.Base, ris.ErrUnsupported))
		}
		q, err := substSQL(b.DeleteSQL, item, v)
		if err != nil {
			return t.report("write", err)
		}
		if _, err := t.db.Exec(q); err != nil {
			return t.report("write", err)
		}
		return nil
	}
	if b.WriteSQL == "" {
		return t.report("write", fmt.Errorf("translator: item %s has no write template: %w", item.Base, ris.ErrReadOnly))
	}
	q, err := substSQL(b.WriteSQL, item, v)
	if err != nil {
		return t.report("write", err)
	}
	res, err := t.db.Exec(q)
	if err != nil {
		return t.report("write", err)
	}
	if res.Affected == 0 && b.InsertSQL != "" {
		q, err := substSQL(b.InsertSQL, item, v)
		if err != nil {
			return t.report("write", err)
		}
		if _, err := t.db.Exec(q); err != nil {
			return t.report("write", err)
		}
	}
	return nil
}

// Subscribe implements cmi.Interface by declaring a trigger on the bound
// table and mapping trigger rows back to items via the key and value
// columns.
func (t *Rel) Subscribe(base string, fn cmi.NotifyFunc) (func(), error) {
	t.countOp("notify")
	b, ok := t.cfg.Binding(base)
	if !ok {
		return nil, t.report("notify", fmt.Errorf("translator: no binding for item %s", base))
	}
	if b.WatchTable == "" || b.KeyCol == "" || b.ValCol == "" {
		return nil, fmt.Errorf("translator: item %s has no watch binding: %w", base, ris.ErrUnsupported)
	}
	// Learn the table's column order once; SELECT * reports columns even
	// on an empty table.
	res, err := t.db.Exec("SELECT * FROM " + b.WatchTable)
	if err != nil {
		return nil, t.report("notify", err)
	}
	keyIdx, valIdx := -1, -1
	for i, c := range res.Columns {
		if strings.EqualFold(c, b.KeyCol) {
			keyIdx = i
		}
		if strings.EqualFold(c, b.ValCol) {
			valIdx = i
		}
	}
	if keyIdx < 0 || valIdx < 0 {
		return nil, t.report("notify", fmt.Errorf("translator: table %s lacks columns %s/%s", b.WatchTable, b.KeyCol, b.ValCol))
	}
	cancel, err := t.db.RegisterTrigger(b.WatchTable, func(op relstore.TriggerOp, _ string, oldRow, newRow relstore.Row) {
		var oldV, newV data.Value
		var key data.Value
		if oldRow != nil {
			key = oldRow[keyIdx]
			oldV = oldRow[valIdx]
		}
		if newRow != nil {
			key = newRow[keyIdx]
			newV = newRow[valIdx]
		}
		if op == relstore.TrigUpdate && oldRow != nil && newRow != nil {
			// Key change shows up as delete+insert on the item level.
			if !oldRow[keyIdx].Equal(newRow[keyIdx]) {
				fn(data.Item(base, oldRow[keyIdx]), oldV, data.NullValue)
				fn(data.Item(base, newRow[keyIdx]), data.NullValue, newV)
				return
			}
			if oldV.Equal(newV) {
				return // update to an unrelated column
			}
		}
		if key.IsNull() {
			return
		}
		if !notifyCondPasses(b.NotifyCond, oldV, newV) {
			return
		}
		fn(data.Item(base, key), oldV, newV)
	})
	if err != nil {
		return nil, t.report("notify", err)
	}
	t.mu.Lock()
	t.cancels = append(t.cancels, cancel)
	t.mu.Unlock()
	return cancel, nil
}

// List implements cmi.Interface using the list template.
func (t *Rel) List(base string) ([]data.ItemName, error) {
	t.countOp("list")
	b, ok := t.cfg.Binding(base)
	if !ok {
		return nil, t.report("read", fmt.Errorf("translator: no binding for item %s", base))
	}
	if b.ListSQL == "" {
		return nil, fmt.Errorf("translator: item %s has no list template: %w", base, ris.ErrUnsupported)
	}
	res, err := t.db.Exec(b.ListSQL)
	if err != nil {
		return nil, t.report("read", err)
	}
	out := make([]data.ItemName, 0, len(res.Rows))
	for _, row := range res.Rows {
		if len(row) == 0 || row[0].IsNull() {
			continue
		}
		out = append(out, data.Item(base, row[0]))
	}
	return out, nil
}

// Close implements cmi.Interface.
func (t *Rel) Close() error {
	t.mu.Lock()
	cancels := t.cancels
	t.cancels = nil
	t.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	return nil
}

var _ cmi.Interface = (*Rel)(nil)
