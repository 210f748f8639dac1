package fleet

import (
	"sort"

	"cmtk/internal/rule"
)

// Affinity derives the co-location map for a spec's rule plan, in the
// form Params.Affinity consumes (base → group anchor).
//
// Two placement facts drive the grouping.  A rule's condition (C0) is
// evaluated at match time on the shell that owns the rule — the owner of
// its anchor base — so every base the condition reads must live with the
// anchor.  A rule's RHS executes as one unit on the shell owning its
// effect bases, evaluating step guards and computed values there, so
// all effect, guard, and value-expression bases of one rule must live
// together.  The anchor and the effect bases are deliberately NOT
// co-located: that hop is the cross-shard rule fire the mesh carries,
// and splitting it is exactly what makes sharding shed load.
//
// Groups are merged transitively (union-find): a base shared by two
// rules pulls both rules' groups together.  A spec whose rules all read
// one global base therefore collapses to a single group — which is the
// honest answer: such a strategy cannot shard.
func Affinity(plan *rule.Plan) map[string]string {
	parent := map[string]string{}
	var find func(string) string
	find = func(b string) string {
		p, ok := parent[b]
		if !ok || p == b {
			parent[b] = b
			return b
		}
		root := find(p)
		parent[b] = root
		return root
	}
	union := func(a, b string) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		// Smaller name becomes the root so the final map is deterministic.
		if rb < ra {
			ra, rb = rb, ra
		}
		parent[rb] = ra
	}

	for _, p := range plan.Rules {
		for _, b := range p.CondReads {
			union(p.Anchor, b)
		}
		if p.Effect == "" {
			continue
		}
		for _, b := range p.RHSBases {
			union(p.Effect, b)
		}
	}

	// Flatten to base → root, dropping singleton self-entries to keep the
	// map minimal.
	keys := make([]string, 0, len(parent))
	for b := range parent {
		keys = append(keys, b)
	}
	sort.Strings(keys)
	out := map[string]string{}
	for _, b := range keys {
		if root := find(b); root != b {
			out[b] = root
		}
	}
	return out
}

// SpecBases collects every item base a spec names (database and
// CM-private), sorted — the base universe an assignment covers.
func SpecBases(spec *rule.Spec) []string {
	set := map[string]bool{}
	for b := range spec.Items {
		set[b] = true
	}
	for b := range spec.Private {
		set[b] = true
	}
	out := make([]string, 0, len(set))
	for b := range set {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}
