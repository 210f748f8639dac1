package rule

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/event"
)

// parser is a recursive-descent parser over a token stream.
type parser struct {
	toks []token
	i    int
	// allowEval permits eval(expr) in the value slot of the template being
	// parsed (step effects only); the parsed expression lands in evalExpr.
	allowEval bool
	evalExpr  Expr
}

func newParser(src string) (*parser, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	return &parser{toks: toks}, nil
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) atPunct(s string) bool {
	t := p.cur()
	return t.kind == tPunct && t.text == s
}

func (p *parser) eatPunct(s string) bool {
	if p.atPunct(s) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.eatPunct(s) {
		return fmt.Errorf("rule: expected %q, got %s at offset %d", s, p.cur(), p.cur().pos)
	}
	return nil
}

func (p *parser) atEOF() bool { return p.cur().kind == tEOF }

// ParseExpr parses a condition expression.
func ParseExpr(src string) (Expr, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, fmt.Errorf("rule: trailing input after expression: %s", p.cur())
	}
	return e, nil
}

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.eatPunct("||") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: "||", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	for p.eatPunct("&&") {
		r, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		l = Binary{Op: "&&", L: l, R: r}
	}
	return l, nil
}

var cmpOps = []string{"==", "!=", "<=", ">=", "=", "<", ">"}

func (p *parser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	for _, op := range cmpOps {
		if p.eatPunct(op) {
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			norm := op
			if norm == "==" {
				norm = "="
			}
			return Binary{Op: norm, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.eatPunct("+"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = Binary{Op: "+", L: l, R: r}
		case p.eatPunct("-"):
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = Binary{Op: "-", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.eatPunct("*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = Binary{Op: "*", L: l, R: r}
		case p.eatPunct("/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = Binary{Op: "/", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.eatPunct("!") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Unary{Op: '!', X: x}, nil
	}
	if p.eatPunct("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Unary{Op: '-', X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tNumber:
		p.next()
		if t.unit != "" {
			return nil, fmt.Errorf("rule: unexpected unit %q on number in expression at offset %d", t.unit, t.pos)
		}
		return Lit{V: t.val}, nil
	case tString:
		p.next()
		return Lit{V: t.val}, nil
	case tIdent:
		p.next()
		switch t.text {
		case "true":
			return Lit{V: data.NewBool(true)}, nil
		case "false":
			return Lit{V: data.NewBool(false)}, nil
		case "null":
			return Lit{V: data.NullValue}, nil
		}
		if p.atPunct("(") {
			p.next()
			var args []Expr
			if !p.atPunct(")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if !p.eatPunct(",") {
						break
					}
				}
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			if t.text == "abs" || t.text == "exists" || t.text == "now" {
				return Call{Fn: t.text, Args: args}, nil
			}
			return ItemRef{Base: t.text, Args: args}, nil
		}
		if isLowerInitial(t.text) {
			return ParamRef{Name: t.text}, nil
		}
		return ItemRef{Base: t.text}, nil
	case tPunct:
		if t.text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, fmt.Errorf("rule: unexpected %s at offset %d", t, t.pos)
}

func isLowerInitial(s string) bool {
	if s == "" {
		return false
	}
	c := s[0]
	return c >= 'a' && c <= 'z'
}

// ParseTemplate parses an event template such as N(salary1(n), b) or
// P(300s) or F.
func ParseTemplate(src string) (event.Template, error) {
	p, err := newParser(src)
	if err != nil {
		return event.Template{}, err
	}
	tpl, err := p.parseTemplate()
	if err != nil {
		return event.Template{}, err
	}
	if !p.atEOF() {
		return event.Template{}, fmt.Errorf("rule: trailing input after template: %s", p.cur())
	}
	return tpl, nil
}

func (p *parser) parseTemplate() (event.Template, error) {
	t := p.cur()
	if t.kind != tIdent {
		return event.Template{}, fmt.Errorf("rule: expected event name, got %s at offset %d", t, t.pos)
	}
	op := event.OpFromName(t.text)
	if op == event.OpInvalid {
		return event.Template{}, fmt.Errorf("rule: unknown event name %q at offset %d (want W, Ws, WR, RR, R, N, P or F)", t.text, t.pos)
	}
	p.next()
	if op == event.OpF {
		return event.TF(), nil
	}
	if err := p.expectPunct("("); err != nil {
		return event.Template{}, err
	}
	if op == event.OpP {
		d, err := p.parseDuration()
		if err != nil {
			return event.Template{}, err
		}
		if err := p.expectPunct(")"); err != nil {
			return event.Template{}, err
		}
		if d <= 0 {
			return event.Template{}, fmt.Errorf("rule: periodic event requires positive period")
		}
		return event.TP(d), nil
	}
	item, err := p.parseItemTemplate()
	if err != nil {
		return event.Template{}, err
	}
	tpl := event.Template{Op: op, Item: item, OldT: event.Wild()}
	if op.HasValue() {
		if err := p.expectPunct(","); err != nil {
			return event.Template{}, err
		}
		if p.allowEval && p.atEvalCall() {
			expr, err := p.parseEvalCall()
			if err != nil {
				return event.Template{}, err
			}
			p.evalExpr = expr
			tpl.ValT = event.Wild()
			if err := p.expectPunct(")"); err != nil {
				return event.Template{}, err
			}
			return tpl, nil
		}
		first, err := p.parseTerm()
		if err != nil {
			return event.Template{}, err
		}
		if op == event.OpWs && p.eatPunct(",") {
			// Three-argument form Ws(item, old, new).
			second, err := p.parseTerm()
			if err != nil {
				return event.Template{}, err
			}
			tpl.OldT = first
			tpl.ValT = second
		} else {
			tpl.ValT = first
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return event.Template{}, err
	}
	return tpl, nil
}

func (p *parser) parseItemTemplate() (event.ItemTemplate, error) {
	t := p.cur()
	if t.kind != tIdent {
		return event.ItemTemplate{}, fmt.Errorf("rule: expected item name, got %s at offset %d", t, t.pos)
	}
	p.next()
	it := event.ItemT(t.text)
	if p.eatPunct("(") {
		if !p.atPunct(")") {
			for {
				term, err := p.parseTerm()
				if err != nil {
					return event.ItemTemplate{}, err
				}
				it.Args = append(it.Args, term)
				if !p.eatPunct(",") {
					break
				}
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return event.ItemTemplate{}, err
		}
	}
	return it, nil
}

// atEvalCall reports whether the next tokens are eval( .
func (p *parser) atEvalCall() bool {
	t := p.cur()
	return t.kind == tIdent && t.text == "eval" &&
		p.i+1 < len(p.toks) && p.toks[p.i+1].kind == tPunct && p.toks[p.i+1].text == "("
}

// parseEvalCall parses eval(EXPR).
func (p *parser) parseEvalCall() (Expr, error) {
	p.next() // eval
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return e, nil
}

// parseTerm parses a template argument slot: *, a literal, or a parameter.
func (p *parser) parseTerm() (event.Term, error) {
	t := p.cur()
	switch {
	case t.kind == tPunct && t.text == "*":
		p.next()
		return event.Wild(), nil
	case t.kind == tPunct && t.text == "-":
		p.next()
		n := p.cur()
		if n.kind != tNumber || n.unit != "" {
			return event.Term{}, fmt.Errorf("rule: expected number after - at offset %d", t.pos)
		}
		p.next()
		neg, err := data.Arith('-', data.NewInt(0), n.val)
		if err != nil {
			return event.Term{}, err
		}
		return event.Lit(neg), nil
	case t.kind == tNumber:
		p.next()
		if t.unit != "" {
			return event.Term{}, fmt.Errorf("rule: unexpected unit %q in template argument at offset %d", t.unit, t.pos)
		}
		return event.Lit(t.val), nil
	case t.kind == tString:
		p.next()
		return event.Lit(t.val), nil
	case t.kind == tIdent:
		p.next()
		switch t.text {
		case "true":
			return event.Lit(data.NewBool(true)), nil
		case "false":
			return event.Lit(data.NewBool(false)), nil
		case "null":
			return event.Lit(data.NullValue), nil
		}
		return event.Param(t.text), nil
	default:
		return event.Term{}, fmt.Errorf("rule: expected template argument, got %s at offset %d", t, t.pos)
	}
}

// parseDuration parses a number with an optional unit suffix (ms, s, m, h,
// d); a bare number means seconds, the paper's time unit.
func (p *parser) parseDuration() (time.Duration, error) {
	t := p.cur()
	if t.kind != tNumber {
		return 0, fmt.Errorf("rule: expected duration, got %s at offset %d", t, t.pos)
	}
	p.next()
	f, _ := t.val.AsFloat()
	var unit time.Duration
	switch t.unit {
	case "", "s":
		unit = time.Second
	case "ms":
		unit = time.Millisecond
	case "us":
		unit = time.Microsecond
	case "m":
		unit = time.Minute
	case "h":
		unit = time.Hour
	case "d":
		unit = 24 * time.Hour
	default:
		return 0, fmt.Errorf("rule: unknown duration unit %q at offset %d", t.unit, t.pos)
	}
	return time.Duration(f * float64(unit)), nil
}

// ParseRule parses one rule in concrete syntax:
//
//	[id:] TEMPLATE [&& COND] ->DELTA [(COND)?] TEMPLATE {, [(COND)?] TEMPLATE}
func ParseRule(src string) (Rule, error) {
	p, err := newParser(src)
	if err != nil {
		return Rule{}, err
	}
	r, err := p.parseRule()
	if err != nil {
		return Rule{}, err
	}
	if !p.atEOF() {
		return Rule{}, fmt.Errorf("rule: trailing input after rule: %s", p.cur())
	}
	if err := r.Validate(); err != nil {
		return Rule{}, err
	}
	return r, nil
}

func (p *parser) parseRule() (Rule, error) {
	var r Rule
	// Optional "id:" prefix — an identifier followed by a colon that is not
	// an event name opening paren.
	if p.cur().kind == tIdent && p.i+1 < len(p.toks) && p.toks[p.i+1].kind == tPunct && p.toks[p.i+1].text == ":" {
		r.ID = p.next().text
		p.next() // colon
	}
	lhs, err := p.parseTemplate()
	if err != nil {
		return Rule{}, err
	}
	r.LHS = lhs
	if p.eatPunct("&&") {
		cond, err := p.parseExpr()
		if err != nil {
			return Rule{}, err
		}
		r.Cond = cond
	}
	if err := p.expectPunct("->"); err != nil {
		return Rule{}, err
	}
	d, err := p.parseDuration()
	if err != nil {
		return Rule{}, err
	}
	r.Delta = d
	for {
		step, err := p.parseStep()
		if err != nil {
			return Rule{}, err
		}
		r.Steps = append(r.Steps, step)
		if !p.eatPunct(",") {
			break
		}
	}
	return r, nil
}

func (p *parser) parseStep() (Step, error) {
	var s Step
	if p.atPunct("(") {
		// Guarded step: ( EXPR ) ? TEMPLATE
		p.next()
		cond, err := p.parseExpr()
		if err != nil {
			return Step{}, err
		}
		if err := p.expectPunct(")"); err != nil {
			return Step{}, err
		}
		if err := p.expectPunct("?"); err != nil {
			return Step{}, err
		}
		s.Cond = cond
	}
	p.allowEval = true
	p.evalExpr = nil
	eff, err := p.parseTemplate()
	p.allowEval = false
	if err != nil {
		return Step{}, err
	}
	s.Eff = eff
	s.ValExpr = p.evalExpr
	p.evalExpr = nil
	return s, nil
}

// ParseSpec parses a specification file (strategy specification or the
// interface section of a CM-RID).  The format is line-oriented:
//
//	# comment
//	site A
//	site B
//	item salary1 @ A
//	item salary2 @ B
//	private Cx @ A
//	rule prop: N(salary1(n), b) ->5s WR(salary2(n), b)
//
// The parsed spec is validated before being returned.
func ParseSpec(r io.Reader) (*Spec, error) {
	spec := NewSpec()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "//") {
			continue
		}
		word, rest := splitWord(line)
		switch word {
		case "site":
			name := strings.TrimSpace(rest)
			if name == "" || strings.ContainsAny(name, " \t") {
				return nil, fmt.Errorf("rule: line %d: site wants exactly one name", lineNo)
			}
			if spec.HasSite(name) {
				return nil, fmt.Errorf("rule: line %d: duplicate site %s", lineNo, name)
			}
			spec.Sites = append(spec.Sites, name)
		case "item", "private":
			base, site, err := parsePlacement(rest)
			if err != nil {
				return nil, fmt.Errorf("rule: line %d: %w", lineNo, err)
			}
			m := spec.Items
			if word == "private" {
				m = spec.Private
			}
			if _, dup := spec.Items[base]; dup {
				return nil, fmt.Errorf("rule: line %d: duplicate item %s", lineNo, base)
			}
			if _, dup := spec.Private[base]; dup {
				return nil, fmt.Errorf("rule: line %d: duplicate item %s", lineNo, base)
			}
			m[base] = site
		case "guarantee":
			if rest == "" {
				return nil, fmt.Errorf("rule: line %d: guarantee wants a declaration", lineNo)
			}
			spec.Guarantees = append(spec.Guarantees, rest)
		case "rule":
			rl, err := ParseRule(rest)
			if err != nil {
				return nil, fmt.Errorf("rule: line %d: %w", lineNo, err)
			}
			if rl.ID == "" {
				rl.ID = fmt.Sprintf("r%d", len(spec.Rules)+1)
			}
			spec.Rules = append(spec.Rules, rl)
		default:
			return nil, fmt.Errorf("rule: line %d: unknown directive %q", lineNo, word)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("rule: reading spec: %w", err)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// ParseSpecString parses a specification from a string.
func ParseSpecString(s string) (*Spec, error) {
	return ParseSpec(strings.NewReader(s))
}

func splitWord(s string) (word, rest string) {
	i := strings.IndexAny(s, " \t")
	if i < 0 {
		return s, ""
	}
	return s[:i], strings.TrimSpace(s[i:])
}

// parsePlacement parses "base @ site".
func parsePlacement(s string) (base, site string, err error) {
	parts := strings.Split(s, "@")
	if len(parts) != 2 {
		return "", "", fmt.Errorf("placement wants \"base @ site\", got %q", s)
	}
	base = strings.TrimSpace(parts[0])
	site = strings.TrimSpace(parts[1])
	if base == "" || site == "" {
		return "", "", fmt.Errorf("placement wants \"base @ site\", got %q", s)
	}
	return base, site, nil
}
