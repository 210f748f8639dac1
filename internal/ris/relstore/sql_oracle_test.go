package relstore

import (
	"fmt"
	"strconv"
	"strings"

	"cmtk/internal/data"
)

// The lexer and Parse as they were before the lexer appended into a
// caller's stack buffer, kept verbatim (bar the names) as the oracle
// FuzzSQLParse holds Parse to.  Tokens went into a fresh slice, and every
// string literal was copied through a strings.Builder.  The parser
// methods are shared: only the lexer and Parse's use of it changed.

func oracleLex(src string) ([]sqlTok, error) {
	var toks []sqlTok
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'':
			start := i
			i++
			var b strings.Builder
			closed := false
			for i < len(src) {
				if src[i] == '\'' {
					if i+1 < len(src) && src[i+1] == '\'' {
						b.WriteByte('\'')
						i += 2
						continue
					}
					i++
					closed = true
					break
				}
				b.WriteByte(src[i])
				i++
			}
			if !closed {
				return nil, fmt.Errorf("relstore: unterminated string at offset %d", start)
			}
			toks = append(toks, sqlTok{kind: sString, val: data.NewString(b.String()), pos: start})
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
				toks = append(toks, sqlTok{kind: sPunct, text: string(c), pos: start})
				i++
			default:
				return nil, fmt.Errorf("relstore: unexpected character %q at offset %d", string(c), start)
			}
		}
	}
	toks = append(toks, sqlTok{kind: sEOF, pos: len(src)})
	return toks, nil
}

func parseOracle(src string) (Stmt, error) {
	toks, err := oracleLex(src)
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
		stmt, err = p.parseUpdate(nil)
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
