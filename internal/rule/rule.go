package rule

import (
	"fmt"
	"strings"
	"time"

	"cmtk/internal/event"
)

// Step is one right-hand-side element Ci?𝓔i of a rule: an optional guard
// condition evaluated at the site of the effect, and the event template to
// instantiate when the guard holds.
//
// ValExpr, when non-nil, computes the effect's value slot from data local
// to the effect site at firing time (written eval(...) in the concrete
// syntax); Eff.ValT is then a wildcard placeholder.  This extends the
// paper's language just enough to express the Section 7.1 decomposition
// of arithmetic constraints like X = Y + Z into copy constraints plus a
// local recomputation:
//
//	rule cy: N(Y, b) ->2s W(Yc, b), W(X, eval(Yc + Zc))
type Step struct {
	Cond    Expr // nil means unconditional
	Eff     event.Template
	ValExpr Expr // nil means the template's value term is used
}

// String renders the step in concrete syntax.
func (s Step) String() string {
	eff := s.Eff.String()
	if s.ValExpr != nil {
		eff = renderEvalEffect(s.Eff, s.ValExpr)
	}
	if s.Cond == nil {
		return eff
	}
	return "(" + condBody(s.Cond) + ")? " + eff
}

// renderEvalEffect prints op(item, eval(expr)).
func renderEvalEffect(t event.Template, e Expr) string {
	return fmt.Sprintf("%s(%s, eval(%s))", t.Op, t.Item, condBody(e))
}

// Rule is the general rule form of Appendix A.1:
//
//	𝓔0 ∧ C0 →δ C1?𝓔1, …, Ck?𝓔k
//
// Interface statements are rules with exactly one unconditional step.
// Steps execute in order at a single site within δ of the triggering
// event; a step whose condition is false is skipped (the rule as a whole
// still "fired").
type Rule struct {
	ID    string
	LHS   event.Template
	Cond  Expr // C0, evaluated at the LHS site when the LHS event occurs; nil = true
	Delta time.Duration
	Steps []Step
}

// String renders the rule in the concrete syntax accepted by ParseRule.
func (r Rule) String() string {
	var b strings.Builder
	if r.ID != "" {
		b.WriteString(r.ID)
		b.WriteString(": ")
	}
	b.WriteString(r.LHS.String())
	if r.Cond != nil {
		b.WriteString(" && (")
		b.WriteString(condBody(r.Cond))
		b.WriteString(")")
	}
	fmt.Fprintf(&b, " ->%s ", FormatDelta(r.Delta))
	for i, s := range r.Steps {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(s.String())
	}
	return b.String()
}

// condBody strips one redundant outer parenthesis layer that Binary.String
// would otherwise double up.
func condBody(e Expr) string {
	s := e.String()
	if strings.HasPrefix(s, "(") && strings.HasSuffix(s, ")") {
		// Only strip when the outer parens actually match each other.
		depth := 0
		for i := 0; i < len(s); i++ {
			switch s[i] {
			case '(':
				depth++
			case ')':
				depth--
				if depth == 0 && i != len(s)-1 {
					return s
				}
			}
		}
		return s[1 : len(s)-1]
	}
	return s
}

// FormatDelta renders a duration in the rule syntax: integral seconds as
// "5s", sub-second as milliseconds, otherwise Go syntax.
func FormatDelta(d time.Duration) string {
	if d == 0 {
		return "0s"
	}
	if d%time.Second == 0 {
		return fmt.Sprintf("%ds", d/time.Second)
	}
	if d%time.Millisecond == 0 {
		return fmt.Sprintf("%dms", d/time.Millisecond)
	}
	return d.String()
}

// Validate checks the static well-formedness conditions of Appendix A.1:
// the rule has at least one step; every parameter used on the RHS (in
// guards or effect templates) is bound by the LHS template; F never
// appears on the LHS in strategy position (it may — a no-spontaneous-write
// interface statement has F on the RHS, which is fine); and the LHS
// condition only uses LHS-bound parameters.
func (r Rule) Validate() error {
	if len(r.Steps) == 0 {
		return fmt.Errorf("rule %s: no right-hand side steps", r.ID)
	}
	if r.Delta < 0 {
		return fmt.Errorf("rule %s: negative delta", r.ID)
	}
	bound := map[string]bool{"now": true} // reserved: bound to the current time at firing
	for _, p := range r.LHS.Params() {
		bound[p] = true
	}
	// Equality conjuncts in the LHS condition bind additional parameters,
	// as in the Read interface RR(X) ∧ (X = b) →ε R(X, b).
	binders := map[string]bool{}
	for _, p := range CondBinders(r.Cond) {
		binders[p] = true
	}
	for _, p := range ExprParams(r.Cond) {
		if !bound[p] && !binders[p] {
			return fmt.Errorf("rule %s: LHS condition uses parameter %q not bound by the LHS event", r.ID, p)
		}
	}
	for p := range binders {
		bound[p] = true
	}
	for i, s := range r.Steps {
		for _, p := range ExprParams(s.Cond) {
			if !bound[p] {
				return fmt.Errorf("rule %s: step %d condition uses unbound parameter %q", r.ID, i+1, p)
			}
		}
		for _, p := range ExprParams(s.ValExpr) {
			if !bound[p] {
				return fmt.Errorf("rule %s: step %d value expression uses unbound parameter %q", r.ID, i+1, p)
			}
		}
		if s.ValExpr != nil && !s.Eff.Op.HasValue() {
			return fmt.Errorf("rule %s: step %d: %s events carry no value for eval(...)", r.ID, i+1, s.Eff.Op)
		}
		if s.Eff.Op == event.OpF {
			continue // F on the RHS expresses "must never happen"
		}
		for _, p := range s.Eff.Params() {
			if !bound[p] {
				return fmt.Errorf("rule %s: step %d effect uses unbound parameter %q", r.ID, i+1, p)
			}
		}
	}
	return nil
}

// IsInterfaceStatement reports whether the rule has the restricted
// interface-statement shape of Section 3.1: a single step.
func (r Rule) IsInterfaceStatement() bool { return len(r.Steps) == 1 }

// Spec is a parsed specification file: the sites, the item→site catalog,
// CM-private items, and the rules.  The same format serves Strategy
// Specifications and the interface-statement section of CM-RIDs
// (Section 4.1).
type Spec struct {
	Sites   []string          // declared sites, in order
	Items   map[string]string // item base name → site
	Private map[string]string // CM-private item base → owning shell site
	Rules   []Rule
	// Guarantees holds guarantee declarations in their textual form
	// ("follows(salary1, salary2)").  The rule package stores them
	// verbatim; package guarantee parses and checks them — deployments
	// and cmctl consume the declarations from here.
	Guarantees []string
}

// NewSpec returns an empty spec.
func NewSpec() *Spec {
	return &Spec{Items: map[string]string{}, Private: map[string]string{}}
}

// SiteOf resolves the site owning an item base name, consulting items then
// private items.
func (s *Spec) SiteOf(base string) (string, bool) {
	if site, ok := s.Items[base]; ok {
		return site, true
	}
	site, ok := s.Private[base]
	return site, ok
}

// HasSite reports whether the site was declared.
func (s *Spec) HasSite(site string) bool {
	for _, x := range s.Sites {
		if x == site {
			return true
		}
	}
	return false
}

// Validate checks the spec as Plan does.
func (s *Spec) Validate() error {
	_, err := s.Plan()
	return err
}

// String renders the spec in the concrete syntax accepted by ParseSpec.
func (s *Spec) String() string {
	var b strings.Builder
	for _, site := range s.Sites {
		fmt.Fprintf(&b, "site %s\n", site)
	}
	// Deterministic order for items.
	for _, base := range sortedKeys(s.Items) {
		fmt.Fprintf(&b, "item %s @ %s\n", base, s.Items[base])
	}
	for _, base := range sortedKeys(s.Private) {
		fmt.Fprintf(&b, "private %s @ %s\n", base, s.Private[base])
	}
	for _, r := range s.Rules {
		fmt.Fprintf(&b, "rule %s\n", r)
	}
	for _, g := range s.Guarantees {
		fmt.Fprintf(&b, "guarantee %s\n", g)
	}
	return b.String()
}

func sortedKeys(m map[string]string) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	for i := 1; i < len(ks); i++ {
		for j := i; j > 0 && ks[j] < ks[j-1]; j-- {
			ks[j], ks[j-1] = ks[j-1], ks[j]
		}
	}
	return ks
}
