package rule

import (
	"fmt"

	"cmtk/internal/event"
)

// Key addresses one bucket of a shell's dispatch index: the LHS
// operation plus the literal item base (empty for item-less P rules).
// Template item bases are always literal (only argument slots may be
// parameters or wildcards), so an event can only match rules under its
// own key.
type Key struct {
	Op   event.Op
	Base string
}

// Placed is one rule of a Plan with its placement worked out.  Appendix
// A.1 places a rule at its LHS site and runs all of its RHS events at
// one site; a fleet resolves the same facts through the owners of the
// Anchor and Effect bases instead of their sites.
type Placed struct {
	Rule *Rule // into the spec's Rules
	Key  Key   // dispatch key
	// Anchor is the base whose owner owns the rule: the LHS item base,
	// or a P rule's first sited effect base.  Site is its site.
	Anchor, Site string
	// Effect is the first sited effect base, whose owner executes the
	// RHS, and EffSite the site every sited effect lives at.  Both are
	// empty when every effect is F: the rule never executes anything.
	Effect, EffSite string
	// CondReads are the bases the LHS condition reads; RHSBases are the
	// bases the RHS writes and its guards and computed values read.
	CondReads, RHSBases []string
}

// Plan is a validated spec's rule placement, built once by Spec.Plan.
// It points into the spec's Rules, so it holds as long as they are not
// changed.
type Plan struct {
	Rules []Placed // one per spec rule, in spec order
	byID  map[string]*Placed
}

// Rule finds a placed rule by ID; a nil plan finds none.
func (p *Plan) Rule(id string) *Placed {
	if p == nil {
		return nil
	}
	return p.byID[id]
}

// Plan checks the spec and places its rules: every item maps to a
// declared site, every rule validates and has a unique ID, every rule's
// LHS item is cataloged, all RHS effects of a rule resolve to one site
// whose data their guards and computed values alone read (Appendix A.1
// requires this), and a P rule has a sited effect to run at.
func (s *Spec) Plan() (*Plan, error) {
	for base, site := range s.Items {
		if !s.HasSite(site) {
			return nil, fmt.Errorf("spec: item %s placed at undeclared site %s", base, site)
		}
	}
	for base, site := range s.Private {
		if !s.HasSite(site) {
			return nil, fmt.Errorf("spec: private item %s placed at undeclared site %s", base, site)
		}
		if _, dup := s.Items[base]; dup {
			return nil, fmt.Errorf("spec: item %s declared both database and private", base)
		}
	}
	p := &Plan{Rules: make([]Placed, len(s.Rules)), byID: make(map[string]*Placed, len(s.Rules))}
	for i := range s.Rules {
		pl := &p.Rules[i]
		pl.Rule = &s.Rules[i]
		r := pl.Rule
		if err := r.Validate(); err != nil {
			return nil, fmt.Errorf("spec: %w", err)
		}
		if r.ID != "" {
			if _, dup := p.byID[r.ID]; dup {
				return nil, fmt.Errorf("spec: duplicate rule id %q", r.ID)
			}
			p.byID[r.ID] = pl
		}
		if err := s.place(pl); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// place fills in one rule's placement.
func (s *Spec) place(pl *Placed) error {
	r := pl.Rule
	if r.LHS.Op.HasItem() {
		site, ok := s.SiteOf(r.LHS.Item.Base)
		if !ok {
			return fmt.Errorf("spec: rule %s: LHS item %s has no site", r.ID, r.LHS.Item.Base)
		}
		pl.Key = Key{Op: r.LHS.Op, Base: r.LHS.Item.Base}
		pl.Anchor, pl.Site = r.LHS.Item.Base, site
	}
	pl.CondReads = ExprItems(r.Cond)
	for _, step := range r.Steps {
		reads := append(ExprItems(step.Cond), ExprItems(step.ValExpr)...)
		pl.RHSBases = append(pl.RHSBases, reads...)
		if !step.Eff.Op.HasItem() {
			continue
		}
		base := step.Eff.Item.Base
		pl.RHSBases = append(pl.RHSBases, base)
		site, ok := s.SiteOf(base)
		if !ok {
			return fmt.Errorf("spec: rule %s: effect item %s has no site", r.ID, base)
		}
		if pl.Effect == "" {
			pl.Effect, pl.EffSite = base, site
		} else if pl.EffSite != site {
			return fmt.Errorf("spec: rule %s: effects span sites %s and %s; all RHS events of a rule must share one site", r.ID, pl.EffSite, site)
		}
		for _, ib := range reads {
			condSite, ok := s.SiteOf(ib)
			if !ok {
				return fmt.Errorf("spec: rule %s: condition item %s has no site", r.ID, ib)
			}
			if condSite != site {
				return fmt.Errorf("spec: rule %s: condition reads %s at site %s but effect runs at site %s; conditions may only read data local to the effect site", r.ID, ib, condSite, site)
			}
		}
	}
	switch {
	case r.LHS.Op.HasItem():
	case r.LHS.Op != event.OpP:
		return fmt.Errorf("spec: rule %s has unplaceable LHS %s", r.ID, r.LHS)
	case pl.Effect == "":
		return fmt.Errorf("spec: periodic rule %s has no sited effect", r.ID)
	default:
		pl.Key = Key{Op: event.OpP}
		pl.Anchor, pl.Site = pl.Effect, pl.EffSite
	}
	return nil
}
