package fleet

import (
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/rule"
	"cmtk/internal/strategy"
)

// affinityWalk is the co-location walk Affinity did over a spec's rules
// before it read the rule plan, kept as the oracle for it.
func affinityWalk(spec *rule.Spec) map[string]string {
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

	for i := range spec.Rules {
		r := &spec.Rules[i]
		if r.LHS.Op.HasItem() {
			lhs := r.LHS.Item.Base
			for _, b := range rule.ExprItems(r.Cond) {
				union(lhs, b)
			}
		}
		// All of one rule's effects (plus what their guards and value
		// expressions read) execute on one shell.
		var effAnchor string
		for _, st := range r.Steps {
			if st.Eff.Op.HasItem() {
				if effAnchor == "" {
					effAnchor = st.Eff.Item.Base
				}
				union(effAnchor, st.Eff.Item.Base)
			}
		}
		if effAnchor == "" {
			continue
		}
		for _, st := range r.Steps {
			for _, b := range rule.ExprItems(st.Cond) {
				union(effAnchor, b)
			}
			for _, b := range rule.ExprItems(st.ValExpr) {
				union(effAnchor, b)
			}
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

// TestAffinityMatchesWalk holds Affinity over a plan to the rule walk it
// replaced, on the payroll deployment's spec, the spec of
// TestAffinityFromSpec and the spec of every strategy on the menu for
// the payroll copy constraint salary1 = salary2.
func TestAffinityMatchesWalk(t *testing.T) {
	specs := map[string]*rule.Spec{}
	f, err := os.Open("../../configs/payroll/strategy.spec")
	if err != nil {
		t.Fatal(err)
	}
	specs["configs/payroll"], err = rule.ParseSpec(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if specs["TestAffinityFromSpec"], err = rule.ParseSpecString(affinitySpec); err != nil {
		t.Fatal(err)
	}
	c := strategy.Copy{X: "salary1", Y: "salary2", Arity: 1}
	o := strategy.Options{Delta: 5 * time.Second, PollKeys: []data.Value{data.NewString("e1"), data.NewString("e2")}}
	menu := []strategy.Choice{strategy.NotifyPropagation(c, o), strategy.CachedPropagation(c, "B", o)}
	poll, err := strategy.Polling(c, o)
	if err != nil {
		t.Fatal(err)
	}
	// The monitor watches single items, so it gets the arity-0 form.
	mon, err := strategy.Monitor(strategy.Copy{X: "salary1", Y: "salary2"}, "B", o)
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range append(menu, poll, mon) {
		sp := rule.NewSpec()
		sp.Sites = []string{"A", "B"}
		sp.Items["salary1"], sp.Items["salary2"] = "A", "B"
		if err := strategy.Merge(sp, ch); err != nil {
			t.Fatalf("%s: %v", ch.Name, err)
		}
		specs["strategy "+ch.Name] = sp
	}
	for name, sp := range specs {
		plan, err := sp.Plan()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := Affinity(plan), affinityWalk(sp); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Affinity = %v, the walk says %v", name, got, want)
		}
	}
}
