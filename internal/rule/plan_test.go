package rule

import (
	"fmt"
	"testing"

	"cmtk/internal/event"
)

// The placement walkers the shell and its fleet mode used before Plan
// existed, kept as the oracle Plan is checked against.

// ruleAnchor is the base whose owner owns the rule: the LHS item base,
// or the first sited effect base for item-less periodic rules.
func ruleAnchor(r *Rule) (string, bool) {
	if r.LHS.Op.HasItem() {
		return r.LHS.Item.Base, true
	}
	if r.LHS.Op == event.OpP {
		for _, st := range r.Steps {
			if st.Eff.Op.HasItem() {
				return st.Eff.Item.Base, true
			}
		}
	}
	return "", false
}

// effectBase is the base whose owner executes the rule's RHS (all of a
// rule's effects resolve to one owner — the fleet assignment co-locates
// them by affinity, mirroring Appendix A.1's one-site RHS restriction).
func effectBase(r *Rule) (string, bool) {
	for _, st := range r.Steps {
		if st.Eff.Op.HasItem() {
			return st.Eff.Item.Base, true
		}
	}
	return "", false
}

// ruleSite computes the site owning a rule: the site of its LHS item, or
// for periodic rules the site of the first RHS effect.
func ruleSite(spec *Spec, r Rule) (string, error) {
	if r.LHS.Op.HasItem() {
		site, ok := spec.SiteOf(r.LHS.Item.Base)
		if !ok {
			return "", fmt.Errorf("shell: rule %s: no site for item %s", r.ID, r.LHS.Item.Base)
		}
		return site, nil
	}
	if r.LHS.Op == event.OpP {
		for _, st := range r.Steps {
			if st.Eff.Op.HasItem() {
				site, ok := spec.SiteOf(st.Eff.Item.Base)
				if !ok {
					return "", fmt.Errorf("shell: rule %s: no site for item %s", r.ID, st.Eff.Item.Base)
				}
				return site, nil
			}
		}
		return "", fmt.Errorf("shell: periodic rule %s has no sited effect", r.ID)
	}
	return "", fmt.Errorf("shell: rule %s has unplaceable LHS %s", r.ID, r.LHS)
}

// effectSite computes the single site at which a rule's RHS executes.
func effectSite(spec *Spec, r Rule) (string, error) {
	for _, st := range r.Steps {
		if st.Eff.Op.HasItem() {
			site, ok := spec.SiteOf(st.Eff.Item.Base)
			if !ok {
				return "", fmt.Errorf("shell: rule %s: no site for effect item %s", r.ID, st.Eff.Item.Base)
			}
			return site, nil
		}
	}
	// All effects are F: the rule never executes anything.
	return "", nil
}

// checkPlanAgainstOracles holds a parsed spec's plan to the walkers:
// every placed rule's key, anchor, site, effect base and effect site,
// and the lookup by ID.
func checkPlanAgainstOracles(t *testing.T, sp *Spec) {
	t.Helper()
	p, err := sp.Plan()
	if err != nil {
		t.Fatalf("a parsed spec does not plan: %v", err)
	}
	if len(p.Rules) != len(sp.Rules) {
		t.Fatalf("plan has %d rules, spec %d", len(p.Rules), len(sp.Rules))
	}
	for i := range sp.Rules {
		r, pl := &sp.Rules[i], &p.Rules[i]
		if pl.Rule != r {
			t.Fatalf("rule %s: placed rule does not point into the spec", r.ID)
		}
		if got := p.Rule(r.ID); got == nil || got.Rule != r {
			t.Fatalf("Plan.Rule(%q) does not return &spec.Rules[%d]", r.ID, i)
		}
		key := Key{Op: r.LHS.Op}
		if r.LHS.Op.HasItem() {
			key.Base = r.LHS.Item.Base
		}
		anchor, _ := ruleAnchor(r)
		site, err := ruleSite(sp, *r)
		if err != nil {
			t.Fatalf("rule %s: a planned rule has no site: %v", r.ID, err)
		}
		eff, _ := effectBase(r)
		effSite, err := effectSite(sp, *r)
		if err != nil {
			t.Fatalf("rule %s: a planned rule has no effect site: %v", r.ID, err)
		}
		if pl.Key != key || pl.Anchor != anchor || pl.Site != site || pl.Effect != eff || pl.EffSite != effSite {
			t.Fatalf("rule %s placed as key %v anchor %q site %q effect %q effect site %q; the walkers say %v %q %q %q %q",
				r.ID, pl.Key, pl.Anchor, pl.Site, pl.Effect, pl.EffSite, key, anchor, site, eff, effSite)
		}
	}
}
