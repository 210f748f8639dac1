package harness

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/fleet"
	"cmtk/internal/obs"
	"cmtk/internal/rule"
	"cmtk/internal/trace"
)

// E17Row is one arm of the horizontal-saturation sweep: a constraint
// workload of copy, chain, and conditioned rules over independent base
// families, driven through a fleet of N shells with consistent-hash
// ownership.
type E17Row struct {
	Shells       int // fleet member count
	Bases        int // independent base families (each carries 3 rules)
	Rules        int // total rules sharded across the fleet
	Events       int // external updates posted through fleet ingress
	Recorded     int
	EventsPerSec float64
	NsPerEvent   float64
	Moved        int // bases moved by the mid-run rebalance (0 in static arms)
	Violations   int // Appendix A.2 checker findings (must be 0)
}

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

// E17Rows runs the horizontal-saturation sweep; the measured axis is
// fleet width, and every arm's shared trace is validated against the
// Appendix A.2 checker.
func E17Rows(events int) []E17Row {
	e17Run(2, 8, 200, false) // warm-up: page in code and allocator state
	var rows []E17Row
	for _, g := range e17Grid {
		rows = append(rows, e17Run(g.shells, g.bases, events, g.rebalance))
	}
	return rows
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

// e17Run measures one arm.  The fleet rides the real clock (mesh
// deliveries are timer callbacks) with a zero-latency in-process bus,
// so wall time is dominated by engine + routing work, not modelled
// latency.
func e17Run(shells, bases, events int, rebalance bool) E17Row {
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
	start := time.Now()
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
	wall := time.Since(start)

	tr := f.Trace()
	recorded := tr.Len()
	violations := len(f.CheckTrace())
	n := float64(recorded)
	return E17Row{
		Shells: shells, Bases: bases, Rules: len(sp.Rules),
		Events: perFeeder * feeders, Recorded: recorded,
		EventsPerSec: n / wall.Seconds(),
		NsPerEvent:   float64(wall.Nanoseconds()) / n,
		Moved:        moved,
		Violations:   violations,
	}
}

// E17 renders the horizontal-saturation sweep as an experiment table,
// with a scaling column relative to the 1-shell baseline.
func E17(events int) Table {
	tbl := Table{
		ID:    "E17",
		Title: "Horizontal saturation: fleet throughput vs shell count (with one live rebalance)",
		Ref:   "DESIGN.md section 10 fleet model; ROADMAP production-scale north-star",
		Columns: []string{"shells", "bases", "rules", "events", "recorded",
			"events/sec", "ns/event", "scaling", "moved", "trace"},
	}
	rows := E17Rows(events)
	var base float64
	for _, r := range rows {
		if r.Shells == 1 {
			base = r.EventsPerSec
			break
		}
	}
	for _, r := range rows {
		scaling := "n/a"
		if base > 0 {
			scaling = fmt.Sprintf("%.2fx", r.EventsPerSec/base)
		}
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprint(r.Shells), fmt.Sprint(r.Bases), fmt.Sprint(r.Rules),
			fmt.Sprint(r.Events), fmt.Sprint(r.Recorded),
			fmt.Sprintf("%.0f", r.EventsPerSec),
			fmt.Sprintf("%.0f", r.NsPerEvent),
			scaling,
			fmt.Sprint(r.Moved),
			fmt.Sprintf("%d violations", r.Violations),
		})
	}
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("host has %d CPU(s); all fleet members share this process, so on a 1-CPU host", runtime.NumCPU()),
		"adding shells adds routing overhead without adding compute — scaling < 1x is the honest",
		"expectation there, and the value of these arms is the zero-violation column: ownership",
		"routing, cross-shard fires, and the mid-run rebalance preserve every Appendix A.2 property.",
		"on a multi-core host the shells>1 arms spread base families across real cores and the",
		"scaling column becomes a genuine horizontal-scaling curve (bounded by cross-shard",
		"fire traffic on the Y-chain, which always crosses the mesh).")
	return tbl
}
