package harness

import (
	"fmt"
	"strings"
	"sync"

	"cmtk/internal/data"
	"cmtk/internal/fleet"
	"cmtk/internal/obs"
	"cmtk/internal/rule"
	"cmtk/internal/trace"
)

// e17Grid sweeps shell count × constraint count, plus one arm that
// grows the fleet by a member and rebalances at the halfway point while
// the workload keeps running.
var e17Grid = []struct {
	shells, bases int
	rebalance     bool
}{
	{1, 64, false}, {2, 64, false}, {4, 64, false}, {8, 64, false}, {4, 8, false},
	{3, 64, true},
}

// e17Spec builds the fleet workload: per base family, a copy rule
// (Ws X→W Y), a chain rule (W Y→W Z), and a conditioned rule whose
// guard reads a per-family private C — per-family rather than one
// shared condition base, which would co-locate every family on one
// shard (condition reads live with the trigger base).
func e17Spec(bases int) (*rule.Spec, data.Interpretation) {
	var b strings.Builder
	b.WriteString("site S\n")
	for i := 0; i < bases; i++ {
		fmt.Fprintf(&b, "private X%d @ S\nprivate Y%d @ S\nprivate Z%d @ S\nprivate Q%d @ S\nprivate C%d @ S\n", i, i, i, i, i)
		fmt.Fprintf(&b, "rule c%d: Ws(X%d, b) ->5s W(Y%d, b)\n", i, i, i)
		fmt.Fprintf(&b, "rule k%d: W(Y%d, b) ->5s W(Z%d, b)\n", i, i, i)
		fmt.Fprintf(&b, "rule g%d: Ws(X%d, b) && C%d = 0 ->5s W(Q%d, b)\n", i, i, i, i)
	}
	sp, err := rule.ParseSpecString(b.String())
	must(err)
	initial := data.NewInterpretation()
	for i := 0; i < bases; i++ {
		for _, fam := range []string{"X", "Y", "Z", "Q", "C"} {
			initial.Set(data.Item(fmt.Sprintf("%s%d", fam, i)), data.NewInt(0))
		}
	}
	return sp, initial
}

// e17Run runs one arm and renders its row.  The fleet rides the real
// clock (mesh deliveries are timer callbacks) with a zero-latency
// in-process bus and one feeder goroutine per shell, so arms interleave
// differently run to run; the row holds only what the interleaving cannot
// change: the events recorded, the bases the rebalance moved and the
// checker's verdict on the shared trace.
func e17Run(shells, bases, events int, rebalance bool) []string {
	sp, initial := e17Spec(bases)
	members := make([]string, shells)
	for i := range members {
		members[i] = fmt.Sprintf("shard-%d", i+1)
	}
	f, err := fleet.New(sp, fleet.Options{
		Members: members,
		Trace:   trace.New(initial),
		Metrics: obs.NewRegistry(),
	})
	must(err)
	must(f.Start())
	defer f.Stop()
	for i := 0; i < bases; i++ {
		must(f.WriteAux(data.Item(fmt.Sprintf("C%d", i)), data.NewInt(0)))
	}

	feeders := shells
	if feeders > bases {
		feeders = bases
	}
	perFeeder := events / feeders
	// post drives one slice of each feeder's round quota [lo, hi).
	post := func(fi, lo, hi int) {
		fLo, fHi := fi*bases/feeders, (fi+1)*bases/feeders
		span := fHi - fLo
		for e := lo; e < hi; e++ {
			i := e % span
			v := int64(e/span + 1)
			must(f.Post(data.Item(fmt.Sprintf("X%d", fLo+i)),
				data.NewInt(v-1), data.NewInt(v)))
		}
	}
	moved := 0
	run := func(lo, hi int) {
		var wg sync.WaitGroup
		for fi := 0; fi < feeders; fi++ {
			wg.Add(1)
			go func(fi int) {
				defer wg.Done()
				post(fi, lo, hi)
			}(fi)
		}
		wg.Wait()
	}
	if rebalance {
		run(0, perFeeder/2)
		joined := fmt.Sprintf("shard-%d", shells+1)
		must(f.AddShell(joined))
		rep, err := f.Rebalance(append(members, joined))
		must(err)
		moved = len(rep.Moves)
		run(perFeeder/2, perFeeder)
	} else {
		run(0, perFeeder)
	}
	f.Drain()
	return []string{
		fmt.Sprint(shells), fmt.Sprint(bases), fmt.Sprint(len(sp.Rules)),
		fmt.Sprint(perFeeder * feeders), fmt.Sprint(f.Trace().Len()),
		fmt.Sprint(moved),
		fmt.Sprintf("%d violations", len(f.CheckTrace())),
	}
}

// E17 runs the fleet sweep: a constraint workload of copy, chain and
// conditioned rules over independent base families, driven through
// fleets of N shells with consistent-hash ownership, every arm's shared
// trace validated against the Appendix A.2 checker.
func E17(events int) Table {
	tbl := Table{
		ID:      "E17",
		Title:   "Fleet sharding: shell count vs a valid shared trace (with one live rebalance)",
		Ref:     "DESIGN.md section 10 fleet model; ROADMAP production-scale north-star",
		Columns: []string{"shells", "bases", "rules", "events", "recorded", "moved", "trace"},
	}
	for _, g := range e17Grid {
		tbl.Rows = append(tbl.Rows, e17Run(g.shells, g.bases, events, g.rebalance))
	}
	tbl.Notes = append(tbl.Notes,
		"expected shape: every arm records four events per update (the source write and the",
		"copy, chain and conditioned writes) and a trace with zero Appendix A.2 violations:",
		"ownership routing, cross-shard fires on the Y-chain and the mid-run rebalance",
		"(moved > 0) preserve every property.  Throughput against fleet width is a timing",
		"question and belongs to the benchmark, not to this table")
	return tbl
}
