package relstore

import (
	"fmt"
	"strconv"
	"strings"

	"cmtk/internal/data"
)

// Stmt is a parsed SQL statement.
//
//cmlint:allow deadsurface(sealed interface: stmt only marks the statement types)
type Stmt interface{ stmt() }

// CreateStmt is CREATE TABLE.
type CreateStmt struct{ Schema Schema }

// DropStmt is DROP TABLE.
type DropStmt struct{ Table string }

// InsertStmt is INSERT INTO.
type InsertStmt struct {
	Table   string
	Columns []string // empty means positional
	Values  []data.Value
}

// Cond is one WHERE conjunct: column OP literal.
type Cond struct {
	Column string
	Op     string
	Value  data.Value
}

// SelectStmt is SELECT.
type SelectStmt struct {
	Table   string
	Columns []string
	Star    bool
	Where   []Cond
}

// Assign is one SET clause of an UPDATE.
type Assign struct {
	Column string
	Value  data.Value
}

// UpdateStmt is UPDATE.
type UpdateStmt struct {
	Table string
	Sets  []Assign
	Where []Cond
}

// DeleteStmt is DELETE FROM.
type DeleteStmt struct {
	Table string
	Where []Cond
}

func (*CreateStmt) stmt() {}
func (*DropStmt) stmt()   {}
func (*InsertStmt) stmt() {}
func (*SelectStmt) stmt() {}
func (*UpdateStmt) stmt() {}
func (*DeleteStmt) stmt() {}

// sqlToken kinds.
type sqlTokKind int

const (
	sEOF sqlTokKind = iota
	sWord
	sNumber
	sString
	sPunct
)

type sqlTok struct {
	kind sqlTokKind
	text string
	val  data.Value
	pos  int
}

// sqlLex appends the tokens of src to toks, ending with an sEOF token.
// Parse passes a stack array's slice, so a statement of ordinary length
// lexes without allocating.
func sqlLex(toks []sqlTok, src string) ([]sqlTok, error) {
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'':
			start := i
			i++
			escaped, closed := false, false
			for i < len(src) {
				if src[i] == '\'' {
					if i+1 < len(src) && src[i+1] == '\'' {
						escaped = true
						i += 2
						continue
					}
					closed = true
					break
				}
				i++
			}
			if !closed {
				return nil, fmt.Errorf("relstore: unterminated string at offset %d", start)
			}
			// Every quote inside the literal is half of a '' pair, so the
			// unescaped text is the body with each pair folded.
			s := src[start+1 : i]
			if escaped {
				s = strings.ReplaceAll(s, "''", "'")
			}
			i++
			toks = append(toks, sqlTok{kind: sString, val: data.NewString(s), pos: start})
		case c >= '0' && c <= '9' || c == '-' && i+1 < len(src) && src[i+1] >= '0' && src[i+1] <= '9':
			start := i
			if c == '-' {
				i++
			}
			dotted := false
			for i < len(src) && (src[i] >= '0' && src[i] <= '9' || src[i] == '.') {
				if src[i] == '.' {
					dotted = true
				}
				i++
			}
			text := src[start:i]
			if dotted {
				f, err := strconv.ParseFloat(text, 64)
				if err != nil {
					return nil, fmt.Errorf("relstore: bad number %q", text)
				}
				toks = append(toks, sqlTok{kind: sNumber, val: data.NewFloat(f), pos: start})
			} else {
				n, err := strconv.ParseInt(text, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("relstore: bad number %q", text)
				}
				toks = append(toks, sqlTok{kind: sNumber, val: data.NewInt(n), pos: start})
			}
		case isSQLWordStart(c):
			start := i
			for i < len(src) && isSQLWordPart(src[i]) {
				i++
			}
			toks = append(toks, sqlTok{kind: sWord, text: src[start:i], pos: start})
		default:
			start := i
			two := ""
			if i+1 < len(src) {
				two = src[i : i+2]
			}
			switch two {
			case "<>", "<=", ">=", "!=":
				toks = append(toks, sqlTok{kind: sPunct, text: two, pos: start})
				i += 2
				continue
			}
			switch c {
			case '(', ')', ',', '*', '=', '<', '>', ';':
				toks = append(toks, sqlTok{kind: sPunct, text: src[i : i+1], pos: start})
				i++
			default:
				return nil, fmt.Errorf("relstore: unexpected character %q at offset %d", string(c), start)
			}
		}
	}
	toks = append(toks, sqlTok{kind: sEOF, pos: len(src)})
	return toks, nil
}

func isSQLWordStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isSQLWordPart(c byte) bool {
	return isSQLWordStart(c) || c >= '0' && c <= '9'
}

type sqlParser struct {
	toks []sqlTok
	i    int
}

func (p *sqlParser) cur() sqlTok { return p.toks[p.i] }

func (p *sqlParser) word() (string, error) {
	t := p.cur()
	if t.kind != sWord {
		return "", fmt.Errorf("relstore: expected identifier at offset %d", t.pos)
	}
	p.i++
	return t.text, nil
}

func (p *sqlParser) keyword(kw string) bool {
	t := p.cur()
	if t.kind == sWord && strings.EqualFold(t.text, kw) {
		p.i++
		return true
	}
	return false
}

func (p *sqlParser) expectKeyword(kw string) error {
	if !p.keyword(kw) {
		return fmt.Errorf("relstore: expected %s at offset %d", kw, p.cur().pos)
	}
	return nil
}

func (p *sqlParser) punct(s string) bool {
	t := p.cur()
	if t.kind == sPunct && t.text == s {
		p.i++
		return true
	}
	return false
}

func (p *sqlParser) expectPunct(s string) error {
	if !p.punct(s) {
		return fmt.Errorf("relstore: expected %q at offset %d", s, p.cur().pos)
	}
	return nil
}

func (p *sqlParser) literal() (data.Value, error) {
	t := p.cur()
	switch t.kind {
	case sNumber, sString:
		p.i++
		return t.val, nil
	case sWord:
		switch strings.ToUpper(t.text) {
		case "NULL":
			p.i++
			return data.NullValue, nil
		case "TRUE":
			p.i++
			return data.NewBool(true), nil
		case "FALSE":
			p.i++
			return data.NewBool(false), nil
		}
	}
	return data.NullValue, fmt.Errorf("relstore: expected literal at offset %d", t.pos)
}

func (p *sqlParser) atEnd() bool {
	t := p.cur()
	if t.kind == sPunct && t.text == ";" {
		p.i++
		t = p.cur()
	}
	return t.kind == sEOF
}

// stmtBuf is the storage an UPDATE parses into when the engine runs it:
// the statement and room for four SET and four WHERE items, past which
// the lists spill to the heap.
type stmtBuf struct {
	upd   UpdateStmt
	sets  [4]Assign
	where [4]Cond
}

// parse parses one statement, an UPDATE into b when b is not nil.  b is
// an argument, not a parser field: the statement returned points into b,
// and escape analysis, which does not follow fields apart, would move a
// parser holding b to the heap, and the token array with it.
func parse(src string, b *stmtBuf) (Stmt, error) {
	// The token buffer lives in parse's frame, not in the parser: a parser
	// pointing into itself would be moved to the heap.
	var buf [24]sqlTok
	toks, err := sqlLex(buf[:0], src)
	if err != nil {
		return nil, err
	}
	p := &sqlParser{toks: toks}
	var stmt Stmt
	switch {
	case p.keyword("CREATE"):
		stmt, err = p.parseCreate()
	case p.keyword("DROP"):
		stmt, err = p.parseDrop()
	case p.keyword("INSERT"):
		stmt, err = p.parseInsert()
	case p.keyword("SELECT"):
		stmt, err = p.parseSelect()
	case p.keyword("UPDATE"):
		stmt, err = p.parseUpdate(b)
	case p.keyword("DELETE"):
		stmt, err = p.parseDelete()
	default:
		return nil, fmt.Errorf("relstore: unknown statement %q", src)
	}
	if err != nil {
		return nil, err
	}
	if !p.atEnd() {
		return nil, fmt.Errorf("relstore: trailing input at offset %d", p.cur().pos)
	}
	return stmt, nil
}

func (p *sqlParser) parseCreate() (Stmt, error) {
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.word()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	sch := Schema{Table: name}
	for {
		if p.keyword("PRIMARY") {
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			if err := p.expectPunct("("); err != nil {
				return nil, err
			}
			for {
				col, err := p.word()
				if err != nil {
					return nil, err
				}
				sch.PK = append(sch.PK, col)
				if !p.punct(",") {
					break
				}
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
		} else {
			col, err := p.word()
			if err != nil {
				return nil, err
			}
			tw, err := p.word()
			if err != nil {
				return nil, err
			}
			var ct ColType
			switch strings.ToUpper(tw) {
			case "INT", "INTEGER", "BIGINT":
				ct = TInt
			case "FLOAT", "REAL", "DOUBLE":
				ct = TFloat
			case "TEXT", "VARCHAR", "CHAR", "STRING":
				ct = TText
			case "BOOL", "BOOLEAN":
				ct = TBool
			default:
				return nil, fmt.Errorf("relstore: unknown column type %q", tw)
			}
			// Optional length suffix: VARCHAR(32).
			if p.punct("(") {
				if _, err := p.literal(); err != nil {
					return nil, err
				}
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
			}
			sch.Columns = append(sch.Columns, Column{Name: col, Type: ct})
		}
		if !p.punct(",") {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if len(sch.Columns) == 0 {
		return nil, fmt.Errorf("relstore: table %s has no columns", name)
	}
	return &CreateStmt{Schema: sch}, nil
}

func (p *sqlParser) parseDrop() (Stmt, error) {
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.word()
	if err != nil {
		return nil, err
	}
	return &DropStmt{Table: name}, nil
}

func (p *sqlParser) parseInsert() (Stmt, error) {
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.word()
	if err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: name}
	if p.punct("(") {
		for {
			col, err := p.word()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, col)
			if !p.punct(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for {
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		st.Values = append(st.Values, v)
		if !p.punct(",") {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return st, nil
}

// parseWhere appends a WHERE clause's conditions to out.
func (p *sqlParser) parseWhere(out []Cond) ([]Cond, error) {
	if !p.keyword("WHERE") {
		return out, nil
	}
	for {
		col, err := p.word()
		if err != nil {
			return nil, err
		}
		t := p.cur()
		if t.kind != sPunct {
			return nil, fmt.Errorf("relstore: expected comparison operator at offset %d", t.pos)
		}
		op := t.text
		switch op {
		case "=", "<>", "!=", "<", "<=", ">", ">=":
			p.i++
		default:
			return nil, fmt.Errorf("relstore: bad operator %q at offset %d", op, t.pos)
		}
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		out = append(out, Cond{Column: col, Op: op, Value: v})
		if !p.keyword("AND") {
			break
		}
	}
	return out, nil
}

func (p *sqlParser) parseSelect() (Stmt, error) {
	st := &SelectStmt{}
	if p.punct("*") {
		st.Star = true
	} else {
		for {
			col, err := p.word()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, col)
			if !p.punct(",") {
				break
			}
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.word()
	if err != nil {
		return nil, err
	}
	st.Table = name
	st.Where, err = p.parseWhere(nil)
	if err != nil {
		return nil, err
	}
	return st, nil
}

// parseUpdate parses an UPDATE into b, or into a new statement when b is
// nil.
func (p *sqlParser) parseUpdate(b *stmtBuf) (Stmt, error) {
	name, err := p.word()
	if err != nil {
		return nil, err
	}
	var st *UpdateStmt
	if b != nil {
		b.upd = UpdateStmt{Table: name, Sets: b.sets[:0], Where: b.where[:0]}
		st = &b.upd
	} else {
		st = &UpdateStmt{Table: name}
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.word()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		st.Sets = append(st.Sets, Assign{Column: col, Value: v})
		if !p.punct(",") {
			break
		}
	}
	st.Where, err = p.parseWhere(st.Where)
	if err != nil {
		return nil, err
	}
	return st, nil
}

func (p *sqlParser) parseDelete() (Stmt, error) {
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.word()
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Table: name}
	var err2 error
	st.Where, err2 = p.parseWhere(nil)
	if err2 != nil {
		return nil, err2
	}
	return st, nil
}

// AppendSQL appends v as a SQL literal, for command-template substitution
// in CM-RIDs ($b in "update employees set salary = $b ...").
func AppendSQL(dst []byte, v data.Value) []byte {
	switch v.Kind() {
	case data.Null:
		return append(dst, "NULL"...)
	case data.Bool:
		if v.Bool() {
			return append(dst, "TRUE"...)
		}
		return append(dst, "FALSE"...)
	case data.String:
		dst = append(dst, '\'')
		for s := v.Str(); ; {
			i := strings.IndexByte(s, '\'')
			if i < 0 {
				dst = append(dst, s...)
				break
			}
			dst = append(dst, s[:i+1]...)
			dst = append(dst, '\'')
			s = s[i+1:]
		}
		return append(dst, '\'')
	default:
		return v.AppendLiteral(dst)
	}
}
