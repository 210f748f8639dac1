package harness

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/rule"
	"cmtk/internal/shell"
	"cmtk/internal/trace"
	"cmtk/internal/vclock"
)

// E16Row is one arm of the core-scaling sweep.
type E16Row struct {
	Procs        int // GOMAXPROCS and shell worker count (1 = serial engine)
	Bases        int // independent base families (each carries 3 rules)
	Rules        int // total rules on the shell
	Events       int // external updates driven through the shell
	Recorded     int
	EventsPerSec float64
	NsPerEvent   float64
	Violations   int // Appendix A.2 checker findings (must be 0)
}

// e16Grid is the procs×bases sweep.  Base count scales the available
// parallelism (units for distinct bases never share a partition
// footprint except through the shared condition base G0); the procs axis
// is the scaling curve itself.
var e16Grid = []struct{ procs, bases int }{
	{1, 64}, {2, 64}, {4, 64}, {8, 64}, {8, 8},
}

// E16Rows runs the core-scaling sweep.  Each arm pins GOMAXPROCS, builds
// a mixed-constraint strategy (copy X→Y, chain Y→Z, and a conditioned
// rule reading the shared base G0), and drives `events` external updates
// from `procs` feeder goroutines over disjoint base slices.  procs = 1
// uses the classic serial engine, so the first row is the baseline the
// speedup column is computed against.  Every arm's trace is validated
// against the Appendix A.2 checker.
func E16Rows(events int) []E16Row {
	e16Run(2, 8, 200) // warm-up: page in code and allocator state
	var rows []E16Row
	for _, g := range e16Grid {
		rows = append(rows, e16Run(g.procs, g.bases, events))
	}
	return rows
}

// e16Run measures one arm of the sweep.
func e16Run(procs, bases, events int) E16Row {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)

	clk := vclock.NewVirtual(vclock.Epoch)
	var spec strings.Builder
	spec.WriteString("site S\nprivate G0 @ S\n")
	for i := 0; i < bases; i++ {
		fmt.Fprintf(&spec, "private X%d @ S\nprivate Y%d @ S\nprivate Z%d @ S\nprivate Q%d @ S\n", i, i, i, i)
		fmt.Fprintf(&spec, "rule c%d: Ws(X%d, b) ->5s W(Y%d, b)\n", i, i, i)
		fmt.Fprintf(&spec, "rule k%d: W(Y%d, b) ->5s W(Z%d, b)\n", i, i, i)
		fmt.Fprintf(&spec, "rule g%d: Ws(X%d, b) && G0 = 0 ->5s W(Q%d, b)\n", i, i, i)
	}
	sp, err := rule.ParseSpecString(spec.String())
	must(err)
	initial := data.NewInterpretation()
	initial.Set(data.Item("G0"), data.NewInt(0))
	for i := 0; i < bases; i++ {
		for _, fam := range []string{"X", "Y", "Z", "Q"} {
			initial.Set(data.Item(fmt.Sprintf("%s%d", fam, i)), data.NewInt(0))
		}
	}
	sh := shell.New("s", sp, shell.Options{Clock: clk, Workers: procs,
		Trace: trace.NewSharded(initial, procs)})
	sh.AddSite("S", nil)
	sh.WriteAux(data.Item("G0"), data.NewInt(0))
	must(sh.Start())
	defer sh.Stop()

	// Feeders own disjoint base slices so per-base value order is
	// deterministic without cross-feeder coordination.
	feeders := procs
	if feeders > bases {
		feeders = bases
	}
	perFeeder := events / feeders
	start := time.Now()
	var wg sync.WaitGroup
	for f := 0; f < feeders; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			lo, hi := f*bases/feeders, (f+1)*bases/feeders
			span := hi - lo
			counters := make([]int64, span)
			for e := 0; e < perFeeder; e++ {
				i := e % span
				counters[i]++
				sh.Spontaneous(data.Item(fmt.Sprintf("X%d", lo+i)),
					data.NewInt(counters[i]-1), data.NewInt(counters[i]))
			}
		}(f)
	}
	wg.Wait()
	sh.Drain()
	wall := time.Since(start)

	tr := sh.Trace()
	recorded := tr.Len()
	checker := trace.NewChecker(append(sp.Rules, sh.ImplicitRules()...))
	violations := len(checker.Check(tr))
	n := float64(recorded)
	return E16Row{
		Procs: procs, Bases: bases, Rules: len(sp.Rules),
		Events: perFeeder * feeders, Recorded: recorded,
		EventsPerSec: n / wall.Seconds(),
		NsPerEvent:   float64(wall.Nanoseconds()) / n,
		Violations:   violations,
	}
}

// E16 renders the core-scaling sweep as an experiment table, with a
// speedup column relative to the serial (procs = 1) baseline.
func E16(events int) Table {
	tbl := Table{
		ID:    "E16",
		Title: "Core scaling: partitioned engine throughput vs GOMAXPROCS",
		Ref:   "DESIGN.md section 9 concurrency model; ROADMAP production-scale north-star",
		Columns: []string{"procs", "bases", "rules", "events", "recorded",
			"events/sec", "ns/event", "speedup", "trace"},
	}
	rows := E16Rows(events)
	var base float64
	for _, r := range rows {
		if r.Procs == 1 {
			base = r.EventsPerSec
			break
		}
	}
	for _, r := range rows {
		speedup := "n/a"
		if base > 0 {
			speedup = fmt.Sprintf("%.2fx", r.EventsPerSec/base)
		}
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprint(r.Procs), fmt.Sprint(r.Bases), fmt.Sprint(r.Rules),
			fmt.Sprint(r.Events), fmt.Sprint(r.Recorded),
			fmt.Sprintf("%.0f", r.EventsPerSec),
			fmt.Sprintf("%.0f", r.NsPerEvent),
			speedup,
			fmt.Sprintf("%d violations", r.Violations),
		})
	}
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("host has %d CPU(s); speedups only materialize when GOMAXPROCS procs", runtime.NumCPU()),
		"are backed by real cores — on a 1-CPU host all arms collapse to serial throughput.",
		"expected shape on a multi-core host: near-linear scaling while bases >> procs (disjoint",
		"partition footprints), flattening as bases approach procs (footprint collisions on the",
		"shared condition base G0 serialize colliding units at the ordered two-phase acquire)")
	return tbl
}
