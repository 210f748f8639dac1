package rule

import (
	"strings"
	"testing"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/event"
)

func mustExpr(t *testing.T, src string) Expr {
	t.Helper()
	e, err := ParseExpr(src)
	if err != nil {
		t.Fatalf("ParseExpr(%q): %v", src, err)
	}
	return e
}

func evalIn(t *testing.T, src string, env Env) data.Value {
	t.Helper()
	v, err := mustExpr(t, src).Eval(env)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	return v
}

func TestExprLiterals(t *testing.T) {
	env := MapEnv{}
	cases := map[string]data.Value{
		"42":      data.NewInt(42),
		"3.5":     data.NewFloat(3.5),
		`"hi"`:    data.NewString("hi"),
		"true":    data.NewBool(true),
		"false":   data.NewBool(false),
		"null":    data.NullValue,
		"-7":      data.NewInt(-7),
		"2 + 3*4": data.NewInt(14),
		"(2+3)*4": data.NewInt(20),
		"10/4":    data.NewFloat(2.5),
		"abs(-3)": data.NewInt(3),
	}
	for src, want := range cases {
		if got := evalIn(t, src, env); !got.Equal(want) {
			t.Errorf("%s = %s, want %s", src, got, want)
		}
	}
}

func TestExprParamsAndItems(t *testing.T) {
	env := MapEnv{
		Params: event.Bindings{"b": data.NewInt(10), "n": data.NewString("e7")},
		Items: data.Interpretation{
			"Cx":            data.NewInt(9),
			`salary1("e7")`: data.NewInt(100),
			"X":             data.NewInt(5),
		},
	}
	cases := map[string]data.Value{
		"b":                  data.NewInt(10),
		"Cx":                 data.NewInt(9),
		"Cx != b":            data.NewBool(true),
		"X = 5":              data.NewBool(true),
		"X == 5":             data.NewBool(true),
		"salary1(n)":         data.NewInt(100),
		"salary1(n) > 50":    data.NewBool(true),
		"exists(X)":          data.NewBool(true),
		"exists(Y)":          data.NewBool(false),
		"exists(salary1(n))": data.NewBool(true),
		"b + Cx":             data.NewInt(19),
		"!(X = 5)":           data.NewBool(false),
		"X = 5 && b = 10":    data.NewBool(true),
		"X = 6 || b = 10":    data.NewBool(true),
		"X = 6 && b = 10":    data.NewBool(false),
	}
	for src, want := range cases {
		if got := evalIn(t, src, env); !got.Equal(want) {
			t.Errorf("%s = %s, want %s", src, got, want)
		}
	}
}

func TestExprConditionalNotifyFromPaper(t *testing.T) {
	// Section 3.1.1: Ws(X, a, b) ∧ (|b − a| > 0.1·a) → N(X, b)
	cond := mustExpr(t, "abs(b - a) > 0.1 * a")
	yes := MapEnv{Params: event.Bindings{"a": data.NewFloat(100), "b": data.NewFloat(120)}}
	no := MapEnv{Params: event.Bindings{"a": data.NewFloat(100), "b": data.NewFloat(105)}}
	if ok, err := EvalBool(cond, yes); err != nil || !ok {
		t.Errorf("20%% change: %v, %v", ok, err)
	}
	if ok, err := EvalBool(cond, no); err != nil || ok {
		t.Errorf("5%% change: %v, %v", ok, err)
	}
}

func TestExprErrors(t *testing.T) {
	env := MapEnv{}
	for _, src := range []string{"b", `"x" + 1`, "1/0", "abs()", "abs(1,2)", "exists(1)"} {
		e, err := ParseExpr(src)
		if err != nil {
			continue // parse error is also acceptable rejection
		}
		if _, err := e.Eval(env); err == nil {
			t.Errorf("%s evaluated without error", src)
		}
	}
}

func TestExprParseErrors(t *testing.T) {
	for _, src := range []string{"", "1 +", "(1", "1 2", "§", `"unterminated`, "5s + 1"} {
		if _, err := ParseExpr(src); err == nil {
			t.Errorf("ParseExpr(%q) succeeded", src)
		}
	}
}

func TestEvalBoolNilIsTrue(t *testing.T) {
	ok, err := EvalBool(nil, MapEnv{})
	if err != nil || !ok {
		t.Fatalf("EvalBool(nil) = %v, %v", ok, err)
	}
}

func TestIncomparableComparisonIsFalse(t *testing.T) {
	env := MapEnv{Params: event.Bindings{"b": data.NewString("x")}}
	if got := evalIn(t, "b < 3", env); got.Truthy() {
		t.Error("string < int evaluated true")
	}
	// Null item comparison is false, not an error.
	if got := evalIn(t, "Missing = 3", env); got.Truthy() {
		t.Error("null = 3 evaluated true")
	}
}

func TestParseTemplateForms(t *testing.T) {
	cases := []string{
		"W(X, b)",
		"Ws(X, b)",
		"Ws(X, a, b)",
		"WR(salary2(n), b)",
		"RR(X)",
		"R(X, b)",
		"N(salary1(n), b)",
		"P(300)",
		"F",
		"WR(Y, 5)",
		`N(phone("ann"), v)`,
		"W(X, *)",
	}
	for _, src := range cases {
		tpl, err := ParseTemplate(src)
		if err != nil {
			t.Errorf("ParseTemplate(%q): %v", src, err)
			continue
		}
		// Round-trip through String.
		tpl2, err := ParseTemplate(tpl.String())
		if err != nil {
			t.Errorf("re-parse %q: %v", tpl.String(), err)
			continue
		}
		if tpl.String() != tpl2.String() {
			t.Errorf("round trip %q -> %q", tpl.String(), tpl2.String())
		}
	}
}

func TestParseTemplatePeriod(t *testing.T) {
	tpl, err := ParseTemplate("P(300s)")
	if err != nil {
		t.Fatal(err)
	}
	if tpl.Period != 300*time.Second {
		t.Fatalf("period = %v", tpl.Period)
	}
	tpl, err = ParseTemplate("P(1.5m)")
	if err != nil {
		t.Fatal(err)
	}
	if tpl.Period != 90*time.Second {
		t.Fatalf("period = %v", tpl.Period)
	}
	for _, bad := range []string{"P(0)", "P(-5)", "P(x)"} {
		if _, err := ParseTemplate(bad); err == nil {
			t.Errorf("ParseTemplate(%q) succeeded", bad)
		}
	}
}

func TestParseTemplateErrors(t *testing.T) {
	for _, bad := range []string{"", "Q(X, b)", "W(X)", "W(X b)", "RR(X, b)", "W X, b)", "W(X, b) extra"} {
		if _, err := ParseTemplate(bad); err == nil {
			t.Errorf("ParseTemplate(%q) succeeded", bad)
		}
	}
}

func TestParseRulePaperExamples(t *testing.T) {
	cases := []struct {
		src   string
		delta time.Duration
		steps int
	}{
		// Write interface: WR(X, b) →δ W(X, b)
		{"WR(X, b) ->3s W(X, b)", 3 * time.Second, 1},
		// No spontaneous write interface: Ws(X, b) → F
		{"Ws(X, b) ->0s F", 0, 1},
		// Notify interface: Ws(X, b) →δ N(X, b)
		{"Ws(X, b) ->2s N(X, b)", 2 * time.Second, 1},
		// Conditional notify: Ws(X, a, b) ∧ |b−a| > 0.1a →δ N(X, b)
		{"Ws(X, a, b) && abs(b - a) > 0.1 * a ->2s N(X, b)", 2 * time.Second, 1},
		// Periodic notify: P(300) ∧ (X = b) →ε N(X, b)
		{"P(300) && X = b ->1s N(X, b)", time.Second, 1},
		// Read interface: RR(X) ∧ (X = b) →ε R(X, b)
		{"RR(X) && X = b ->1s R(X, b)", time.Second, 1},
		// Parameterized notify interface.
		{"Ws(phone(n), b) ->2s N(phone(n), b)", 2 * time.Second, 1},
		// Copy strategy: N(X, v) →5 WR(Y, v)
		{"N(X, v) ->5s WR(Y, v)", 5 * time.Second, 1},
		// Cached forwarding with two ordered steps.
		{"cache: N(X, b) ->5s (Cx != b)? WR(Y, b), W(Cx, b)", 5 * time.Second, 2},
		// Polling strategy.
		{"P(60) ->1s RR(X)", time.Second, 1},
		{"R(X, b) ->1s WR(Y, b)", time.Second, 1},
	}
	for _, c := range cases {
		r, err := ParseRule(c.src)
		if err != nil {
			t.Errorf("ParseRule(%q): %v", c.src, err)
			continue
		}
		if r.Delta != c.delta {
			t.Errorf("%q: delta = %v, want %v", c.src, r.Delta, c.delta)
		}
		if len(r.Steps) != c.steps {
			t.Errorf("%q: steps = %d, want %d", c.src, len(r.Steps), c.steps)
		}
		// Round-trip.
		r2, err := ParseRule(r.String())
		if err != nil {
			t.Errorf("re-parse %q: %v", r.String(), err)
			continue
		}
		if r.String() != r2.String() {
			t.Errorf("round trip %q -> %q", r.String(), r2.String())
		}
	}
}

func TestParseRuleConditionalNotifyBinding(t *testing.T) {
	// Periodic notify binds b via the LHS condition (X = b).  Our language
	// requires RHS parameters to be LHS-bound, and condition-equality
	// binding is not supported, so P(300) && X = b should fail validation
	// when b is then used on the RHS... unless the parser treats the LHS
	// condition parameters as bound.  The paper's semantics (Appendix A.1)
	// says LHS variables are universally quantified including condition
	// matches, so we accept condition parameters as binders.
	r, err := ParseRule("P(300) && X = b ->1s N(X, b)")
	if err != nil {
		t.Fatalf("periodic notify rejected: %v", err)
	}
	if r.Cond == nil {
		t.Fatal("condition lost")
	}
}

func TestParseRuleGuardSiteLocality(t *testing.T) {
	r, err := ParseRule("N(X, b) ->5s (Cx != b)? WR(Y, b)")
	if err != nil {
		t.Fatal(err)
	}
	if r.Steps[0].Cond == nil {
		t.Fatal("guard lost")
	}
	if got := r.Steps[0].Eff.String(); got != "WR(Y, b)" {
		t.Fatalf("effect = %s", got)
	}
}

func TestRuleValidateUnboundParam(t *testing.T) {
	// c is not bound by the LHS.
	if _, err := ParseRule("N(X, b) ->5s WR(Y, c)"); err == nil {
		t.Error("unbound RHS parameter accepted")
	}
	if _, err := ParseRule("N(X, b) ->5s (c > 0)? WR(Y, b)"); err == nil {
		t.Error("unbound guard parameter accepted")
	}
}

func TestParseRuleErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"N(X, b)",             // no arrow
		"N(X, b) -> WR(Y, b)", // missing delta
		"N(X, b) ->5s",        // no steps
		"->5s WR(Y, b)",       // no LHS
		"N(X, b) ->5s WR(Y, b) trailing",
		"N(X, b) ->-5s WR(Y, b)",
	} {
		if _, err := ParseRule(bad); err == nil {
			t.Errorf("ParseRule(%q) succeeded", bad)
		}
	}
}

const payrollSpec = `
# Section 4.2 payroll scenario
site A
site B
item salary1 @ A
item salary2 @ B
private Cx @ A

rule prop: N(salary1(n), b) ->5s WR(salary2(n), b)
`

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpecString(payrollSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Sites) != 2 || spec.Sites[0] != "A" || spec.Sites[1] != "B" {
		t.Fatalf("sites = %v", spec.Sites)
	}
	if spec.Items["salary1"] != "A" || spec.Items["salary2"] != "B" {
		t.Fatalf("items = %v", spec.Items)
	}
	if spec.Private["Cx"] != "A" {
		t.Fatalf("private = %v", spec.Private)
	}
	if len(spec.Rules) != 1 || spec.Rules[0].ID != "prop" {
		t.Fatalf("rules = %v", spec.Rules)
	}
	if site, ok := spec.SiteOf("Cx"); !ok || site != "A" {
		t.Fatalf("SiteOf(Cx) = %s,%v", site, ok)
	}
	// Round trip.
	spec2, err := ParseSpecString(spec.String())
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, spec.String())
	}
	if spec.String() != spec2.String() {
		t.Fatalf("round trip:\n%s\nvs\n%s", spec.String(), spec2.String())
	}
}

func TestParseSpecAutoRuleIDs(t *testing.T) {
	spec, err := ParseSpecString(`
site A
item X @ A
rule Ws(X, b) ->2s N(X, b)
rule N(X, b) ->5s WR(X, b)
`)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Rules[0].ID != "r1" || spec.Rules[1].ID != "r2" {
		t.Fatalf("auto ids = %s, %s", spec.Rules[0].ID, spec.Rules[1].ID)
	}
	p, err := spec.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if pl := p.Rule("r2"); pl == nil || pl.Rule != &spec.Rules[1] {
		t.Fatal("Plan.Rule(r2) does not find the second rule")
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []string{
		"bogus directive",
		"site",
		"site A B",
		"site A\nsite A",
		"item X",                             // missing placement
		"item X @ Nowhere",                   // undeclared site
		"site A\nitem X @ A\nitem X @ A",     // dup item
		"site A\nitem X @ A\nprivate X @ A",  // item and private
		"site A\nrule N(X, b) ->5s WR(X, b)", // item X not cataloged
		"site A\nitem X @ A\nrule N(X, b) ->5s WR(Y, b)", // effect item unknown
		// Effects must share one site.
		"site A\nsite B\nitem X @ A\nitem Y @ B\nrule N(X, b) ->5s WR(X, b), WR(Y, b)",
		// Condition must be local to the effect site.
		"site A\nsite B\nitem X @ A\nitem Y @ B\nprivate Cx @ A\nrule N(X, b) ->5s (Cx != b)? WR(Y, b)",
		// Duplicate rule ids.
		"site A\nitem X @ A\nrule p: N(X, b) ->5s WR(X, b)\nrule p: N(X, b) ->5s WR(X, b)",
		// No site to place the rule at: an F LHS, a P rule whose only
		// effect is F.
		"site A\nitem X @ A\nrule F ->1s W(X, 1)",
		"site A\nitem X @ A\nrule P(5s) ->1s F",
	}
	for _, src := range cases {
		if _, err := ParseSpecString(src); err == nil {
			t.Errorf("ParseSpecString(%q) succeeded", src)
		}
	}
}

func TestSpecConditionLocalToEffectSiteOK(t *testing.T) {
	// Cache at the destination site: guard reads Cy at site B where the
	// effect runs.  This must validate.
	src := `
site A
site B
item X @ A
item Y @ B
private Cy @ B
rule fwd: N(X, b) ->5s (Cy != b)? WR(Y, b), W(Cy, b)
`
	if _, err := ParseSpecString(src); err != nil {
		t.Fatal(err)
	}
}

func TestFormatDelta(t *testing.T) {
	cases := map[time.Duration]string{
		0:                      "0s",
		5 * time.Second:        "5s",
		300 * time.Millisecond: "300ms",
		90 * time.Second:       "90s",
	}
	for d, want := range cases {
		if got := FormatDelta(d); got != want {
			t.Errorf("FormatDelta(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestExprParamsItemsCollection(t *testing.T) {
	e := mustExpr(t, "abs(b - a) > 0.1 * a && Cx = salary1(n) && exists(Y)")
	ps := ExprParams(e)
	wantP := map[string]bool{"a": true, "b": true, "n": true}
	if len(ps) != len(wantP) {
		t.Fatalf("params = %v", ps)
	}
	for _, p := range ps {
		if !wantP[p] {
			t.Fatalf("unexpected param %q", p)
		}
	}
	is := ExprItems(e)
	wantI := map[string]bool{"Cx": true, "salary1": true, "Y": true}
	if len(is) != len(wantI) {
		t.Fatalf("items = %v", is)
	}
	for _, i := range is {
		if !wantI[i] {
			t.Fatalf("unexpected item %q", i)
		}
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	r, err := ParseRule("  N(X, b) ->5s WR(Y, b)  # propagate")
	if err != nil {
		t.Fatal(err)
	}
	if r.LHS.Op != event.OpN {
		t.Fatal("wrong op")
	}
	if _, err := ParseRule("N(X, b) ->5s WR(Y, b) // slash comment"); err != nil {
		t.Fatal(err)
	}
}

func TestSpecStringDeterministic(t *testing.T) {
	spec, err := ParseSpecString(`
site A
item Zeta @ A
item Alpha @ A
private M @ A
`)
	if err != nil {
		t.Fatal(err)
	}
	s := spec.String()
	if !strings.Contains(s, "item Alpha @ A\nitem Zeta @ A") {
		t.Fatalf("items not sorted:\n%s", s)
	}
}

func TestCondBinders(t *testing.T) {
	e := mustExpr(t, "X = b && c = Y && b > 0")
	got := map[string]bool{}
	for _, p := range CondBinders(e) {
		got[p] = true
	}
	if !got["b"] || !got["c"] || len(got) != 2 {
		t.Fatalf("CondBinders = %v", got)
	}
	if ps := CondBinders(mustExpr(t, "X > b")); len(ps) != 0 {
		t.Fatalf("non-equality binders = %v", ps)
	}
}

func TestEvalCondBinding(t *testing.T) {
	items := data.Interpretation{"X": data.NewInt(7)}
	b := event.Bindings{}
	env := MapEnv{Params: b, Items: items}
	ok, err := EvalCondBinding(mustExpr(t, "X = v && v > 5"), env, b)
	if err != nil || !ok {
		t.Fatalf("binding eval = %v, %v", ok, err)
	}
	if !b["v"].Equal(data.NewInt(7)) {
		t.Fatalf("v = %s", b["v"])
	}
	// Already-bound parameter: plain equality test, no rebind.
	b2 := event.Bindings{"v": data.NewInt(3)}
	env2 := MapEnv{Params: b2, Items: items}
	ok, err = EvalCondBinding(mustExpr(t, "X = v"), env2, b2)
	if err != nil || ok {
		t.Fatalf("bound mismatch eval = %v, %v", ok, err)
	}
	// Reversed sides bind too.
	b3 := event.Bindings{}
	ok, err = EvalCondBinding(mustExpr(t, "w = X"), MapEnv{Params: b3, Items: items}, b3)
	if err != nil || !ok || !b3["w"].Equal(data.NewInt(7)) {
		t.Fatalf("reverse binding = %v, %v, %v", ok, err, b3)
	}
	// A failing earlier conjunct short-circuits.
	b4 := event.Bindings{}
	ok, err = EvalCondBinding(mustExpr(t, "X = 8 && X = u"), MapEnv{Params: b4, Items: items}, b4)
	if err != nil || ok || len(b4) != 0 {
		t.Fatalf("short-circuit = %v, %v, %v", ok, err, b4)
	}
	// Nil condition is true.
	ok, err = EvalCondBinding(nil, MapEnv{}, event.Bindings{})
	if err != nil || !ok {
		t.Fatalf("nil cond = %v, %v", ok, err)
	}
}

func TestParseRuleEvalEffect(t *testing.T) {
	// Section 7.1 decomposition: recompute X from cached copies.
	r, err := ParseRule("cy: N(Y, b) ->2s W(Yc, b), W(X, eval(Yc + Zc))")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Steps) != 2 {
		t.Fatalf("steps = %d", len(r.Steps))
	}
	if r.Steps[0].ValExpr != nil {
		t.Fatal("plain step got a ValExpr")
	}
	if r.Steps[1].ValExpr == nil {
		t.Fatal("eval step lost its expression")
	}
	if !r.Steps[1].Eff.ValT.IsWild() {
		t.Fatal("eval step's template value is not a wildcard")
	}
	// Round-trip.
	r2, err := ParseRule(r.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", r.String(), err)
	}
	if r.String() != r2.String() {
		t.Fatalf("round trip %q -> %q", r.String(), r2.String())
	}
}

func TestParseRuleEvalRestrictions(t *testing.T) {
	// eval is not a term in LHS templates.
	if _, err := ParseRule("N(X, eval(Y)) ->1s W(Z, 1)"); err == nil {
		t.Fatal("eval accepted on the LHS")
	}
	// eval with an unbound parameter is rejected.
	if _, err := ParseRule("N(X, b) ->1s W(Z, eval(c + 1))"); err == nil {
		t.Fatal("unbound parameter in eval accepted")
	}
	// eval on a value-less event is rejected.
	if _, err := ParseRule("N(X, b) ->1s RR(Z, eval(1))"); err == nil {
		t.Fatal("eval on RR accepted")
	}
}

func TestEvalEffectGuardLocality(t *testing.T) {
	// The value expression reads data at the effect site only.
	src := `
site A
site B
item Y @ A
item X @ B
private Yc @ B
private Zc @ B
rule cy: N(Y, b) ->2s W(Yc, b), W(X, eval(Yc + Zc))
`
	if _, err := ParseSpecString(src); err != nil {
		t.Fatal(err)
	}
	// Reading a remote item in eval is rejected.
	bad := `
site A
site B
item Y @ A
item X @ B
private Zc @ B
rule cy: N(Y, b) ->2s W(X, eval(Y + Zc))
`
	if _, err := ParseSpecString(bad); err == nil {
		t.Fatal("cross-site eval accepted")
	}
}

func TestSpecGuaranteeDirective(t *testing.T) {
	spec, err := ParseSpecString(`
site A
site B
item salary1 @ A
item salary2 @ B
rule prop: N(salary1(n), b) ->5s WR(salary2(n), b)
guarantee follows(salary1, salary2)
guarantee metric-leads(salary1, salary2, 15s)
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Guarantees) != 2 || spec.Guarantees[0] != "follows(salary1, salary2)" {
		t.Fatalf("guarantees = %v", spec.Guarantees)
	}
	// Round trip keeps them.
	spec2, err := ParseSpecString(spec.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(spec2.Guarantees) != 2 {
		t.Fatalf("round trip guarantees = %v", spec2.Guarantees)
	}
	if _, err := ParseSpecString("site A\nguarantee"); err == nil {
		t.Fatal("empty guarantee accepted")
	}
}

// FuzzSpecParse: the spec parser reads operator-written files.  A
// malformed spec is an error, never a panic, and a spec it accepts
// renders (Spec.String) to text that parses back and renders to the same
// text again: parse → print → parse is a fixpoint.  The spec's plan places
// every rule where the placement walkers the plan replaced did.
func FuzzSpecParse(f *testing.F) {
	f.Add("site A\nsite B\nitem X @ A\nprivate Y @ B\nprivate Z @ B\n" +
		"rule p: P(5s) ->1s F, RR(Y), (Z = 1)? W(Y, eval(Z + 1))\n" +
		"rule q: Ws(X, b) && X = b ->2s F\nrule r: N(X, b) ->3s WR(Y, b), W(Z, b)\n")
	f.Fuzz(func(t *testing.T, src string) {
		sp, err := ParseSpecString(src)
		if err != nil {
			return
		}
		checkPlanAgainstOracles(t, sp)
		printed := sp.String()
		again, err := ParseSpecString(printed)
		if err != nil {
			t.Fatalf("printed spec does not parse: %v\n--- source ---\n%s\n--- printed ---\n%s", err, src, printed)
		}
		if reprinted := again.String(); reprinted != printed {
			t.Fatalf("parse → print is not a fixpoint:\n--- printed ---\n%s\n--- reprinted ---\n%s", printed, reprinted)
		}
	})
}
