package harness

import (
	"fmt"
	"os"
	"strings"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/durable"
	"cmtk/internal/guarantee"
	"cmtk/internal/obs"
	"cmtk/internal/rule"
	"cmtk/internal/shell"
	"cmtk/internal/trace"
	"cmtk/internal/vclock"
)

// E18Row is one arm of the bounded-memory retention experiment.
type E18Row struct {
	Arm           string // "equivalence" or "soak"
	Updates       int    // external updates driven
	Events        uint64 // lifetime events recorded (folded + retained)
	RetainedPeak  int    // max events held at any sample point
	RetainedFinal int    // events held when the run ended
	PrunedEvents  uint64
	PrunedMB      float64 // estimated heap MB released by folding
	EventsPerSec  float64
	Flat          bool // retained peak stayed within the retention band
	VerdictsEqual bool // equivalence arm: monitor == batch over unpruned control
	Violations    int  // equivalence arm: Appendix A.2 checker findings (must be 0)
	CheckpointB   int  // soak arm: final durable checkpoint size
	ColdStartTail int  // soak arm: WAL records replayed at cold start
	ColdStartOK   bool // soak arm: checkpoint verified and imported
}

// e18Bases is the strategy width: enough independent X→Y families to
// spread writes, few enough that state cost stays out of the way of the
// retention measurement.
const e18Bases = 8

// e18Cadence is the compaction cadence on the virtual clock.
const e18Cadence = 2 * time.Second

// e18Step is the virtual time between external updates.
const e18Step = time.Millisecond

// e18Spec builds the copy strategy: Xi →1s Yi for each base family.
func e18Spec() *rule.Spec {
	var b strings.Builder
	b.WriteString("site S\n")
	for i := 0; i < e18Bases; i++ {
		fmt.Fprintf(&b, "private X%d @ S\nprivate Y%d @ S\n", i, i)
		fmt.Fprintf(&b, "rule r%d: Ws(X%d, b) ->1s W(Y%d, b)\n", i, i, i)
	}
	sp, err := rule.ParseSpecString(b.String())
	must(err)
	return sp
}

// e18Initial seeds only the invariant's item: X0 must be defined (and
// nonnegative) from the first instant.  The metric pairs stay unseeded
// on purpose — metric-leads demands a strictly later echo (t1 < t2), so
// a seeded initial value could never be discharged.
func e18Initial() data.Interpretation {
	in := data.NewInterpretation()
	in.Set(data.Item("X0"), data.NewInt(0))
	return in
}

// e18Guarantees is the monitored set; every window is finite so the
// monitor publishes a retention horizon.
func e18Guarantees() []guarantee.Guarantee {
	pred, err := rule.ParseExpr("X0 >= 0")
	must(err)
	return []guarantee.Guarantee{
		guarantee.MetricFollows{X: "X0", Y: "Y0", Kappa: 3 * time.Second},
		guarantee.MetricLeads{X: "X1", Y: "Y1", Kappa: 3 * time.Second},
		guarantee.ExistsWithin{Ref: "X2", Target: "Y2", Kappa: 3 * time.Second},
		guarantee.Invariant{Label: "x0-nonneg", Pred: pred},
	}
}

// e18Band is the expected retention ceiling in events: the widest
// monitor lookback (metric-leads 2κ = 6s) plus the strategy hold (1s)
// plus one compaction cadence of slack, at one update (two events) per
// e18Step — times a generous factor for advance/fold phase alignment.
func e18Band() int {
	lookback := 6*time.Second + time.Second + e18Cadence
	perSec := int(time.Second/e18Step) * 2
	return 3 * int(lookback/time.Second) * perSec
}

// e18Drive sends n external updates round-robin over the X bases, one
// e18Step apart, sampling the retained-event count every sampleEvery
// updates.  Returns the peak sample.
func e18Drive(sh *shell.Shell, clk *vclock.Virtual, from, n, sampleEvery int) int {
	peak := 0
	for e := from; e < from+n; e++ {
		item := data.Item(fmt.Sprintf("X%d", e%e18Bases))
		sh.Spontaneous(item, data.NewInt(int64(e)), data.NewInt(int64(e+1)))
		clk.Advance(e18Step)
		if (e+1)%sampleEvery == 0 {
			if l := sh.Trace().Len(); l > peak {
				peak = l
			}
		}
	}
	if l := sh.Trace().Len(); l > peak {
		peak = l
	}
	return peak
}

// E18Rows runs both arms of the retention experiment: an equivalence
// arm small enough to keep an unpruned control in memory (monitor
// verdicts over the compacted trace must match the batch checker over
// the control, with zero Appendix A.2 violations), and a soak arm
// driving soakUpdates updates (two recorded events each) against a
// durable checkpoint, asserting the retained count stays inside the
// retention band and that a cold start resumes from checkpoint + WAL
// tail without replaying history.
func E18Rows(soakUpdates, eqUpdates int) []E18Row {
	return []E18Row{e18Equivalence(eqUpdates), e18Soak(soakUpdates)}
}

func e18Equivalence(updates int) E18Row {
	sp := e18Spec()
	clk := vclock.NewVirtual(vclock.Epoch)
	cclk := vclock.NewVirtual(vclock.Epoch)
	sh := shell.New("e18", sp, shell.Options{Clock: clk, Trace: trace.New(e18Initial())})
	ctl := shell.New("e18ctl", sp, shell.Options{Clock: cclk, Trace: trace.New(e18Initial())})
	sh.AddSite("S", nil)
	ctl.AddSite("S", nil)
	mon, err := guarantee.NewMonitor(e18Guarantees()...)
	must(err)
	_, err = sh.EnableRetention(shell.Retention{Monitor: mon, Every: e18Cadence})
	must(err)
	must(sh.Start())
	defer sh.Stop()
	must(ctl.Start())
	defer ctl.Stop()

	start := time.Now()
	peak := e18Drive(sh, clk, 0, updates, 1000)
	wall := time.Since(start)
	e18Drive(ctl, cclk, 0, updates, updates)

	tr := sh.Trace()
	want := guarantee.CheckAll(ctl.Trace(), e18Guarantees()...)
	got := mon.Reports(tr)
	checker := trace.NewChecker(append(sp.Rules, ctl.ImplicitRules()...))
	pruned, prunedBytes := tr.Pruned()
	return E18Row{
		Arm: "equivalence", Updates: updates,
		Events:        tr.TotalEvents(),
		RetainedPeak:  peak,
		RetainedFinal: tr.Len(),
		PrunedEvents:  pruned,
		PrunedMB:      float64(prunedBytes) / (1 << 20),
		EventsPerSec:  float64(tr.TotalEvents()) / wall.Seconds(),
		Flat:          peak <= e18Band(),
		VerdictsEqual: guarantee.EqualVerdicts(want, got),
		Violations:    len(checker.Check(ctl.Trace())),
	}
}

func e18Soak(updates int) E18Row {
	dir, err := os.MkdirTemp("", "cmtk-e18-")
	must(err)
	defer os.RemoveAll(dir)
	dopts := durable.Options{Sync: durable.SyncInterval, Metrics: obs.NewRegistry()}
	st, err := durable.Open(dir, dopts)
	must(err)

	sp := e18Spec()
	clk := vclock.NewVirtual(vclock.Epoch)
	sh := shell.New("e18", sp, shell.Options{Clock: clk, Trace: trace.New(e18Initial())})
	sh.AddSite("S", nil)
	_, err = sh.EnableDurable(st)
	must(err)
	mon, err := guarantee.NewMonitor(e18Guarantees()...)
	must(err)
	// Checkpoint every ~50 fold rounds: the soak is about memory, not
	// checkpoint fsync throughput.
	_, err = sh.EnableRetention(shell.Retention{Monitor: mon, Every: e18Cadence, Store: st, CheckpointEvery: 50})
	must(err)
	must(sh.Start())

	start := time.Now()
	peak := e18Drive(sh, clk, 0, updates, 1000)
	wall := time.Since(start)
	tr := sh.Trace()
	events := tr.TotalEvents()
	retained := tr.Len()
	pruned, prunedBytes := tr.Pruned()
	finalState := tr.Final()
	sh.Stop()
	must(st.Close()) // writes the final trace checkpoint

	// Cold start: the WAL tail (private journal records past its last
	// checkpoint) is all that replays; the trace comes back from the
	// verified snapshot with no events.
	tail, err := durable.ReadLog(dir, "shell-e18")
	must(err)
	ckpt, err := durable.ReadLog(dir, "trace-e18")
	must(err)
	st2, err := durable.Open(dir, dopts)
	must(err)
	defer st2.Close()
	clk2 := vclock.NewVirtual(clk.Now().Add(time.Minute))
	sh2 := shell.New("e18", sp, shell.Options{Clock: clk2, Trace: trace.New(e18Initial())})
	sh2.AddSite("S", nil)
	_, err = sh2.EnableDurable(st2)
	must(err)
	mon2, err := guarantee.NewMonitor(e18Guarantees()...)
	must(err)
	res, err := sh2.EnableRetention(shell.Retention{Monitor: mon2, Every: e18Cadence, Store: st2})
	must(err)
	coldOK := res.Restored && res.Report.Rejected == 0 &&
		sh2.Trace().Len() == 0 && sh2.Trace().TotalEvents() == events &&
		sh2.Trace().Initial().Equal(finalState)

	return E18Row{
		Arm: "soak", Updates: updates,
		Events:        events,
		RetainedPeak:  peak,
		RetainedFinal: retained,
		PrunedEvents:  pruned,
		PrunedMB:      float64(prunedBytes) / (1 << 20),
		EventsPerSec:  float64(events) / wall.Seconds(),
		Flat:          peak <= e18Band(),
		VerdictsEqual: allHold(mon.Reports(tr)), // clean copy workload: every guarantee holds
		CheckpointB:   len(ckpt.Snapshot),
		ColdStartTail: len(tail.Records),
		ColdStartOK:   coldOK,
	}
}

func allHold(reports []guarantee.Report) bool {
	for _, r := range reports {
		if !r.Holds {
			return false
		}
	}
	return true
}

// E18 renders the retention experiment as an experiment table.
func E18(soakUpdates, eqUpdates int) Table {
	tbl := Table{
		ID:    "E18",
		Title: "Bounded-memory retention: guarantee-aware compaction + verified checkpoint cold start",
		Ref:   "DESIGN.md §12 retention model; ROADMAP bounded-memory item",
		Columns: []string{"arm", "updates", "events", "retained peak", "retained final",
			"pruned", "pruned MB", "events/sec", "flat", "verdicts", "cold start"},
	}
	for _, r := range E18Rows(soakUpdates, eqUpdates) {
		cold := "-"
		if r.Arm == "soak" {
			cold = fmt.Sprintf("ok=%v tail=%d ckpt=%dB", r.ColdStartOK, r.ColdStartTail, r.CheckpointB)
		}
		verdicts := fmt.Sprintf("equal=%v", r.VerdictsEqual)
		if r.Arm == "equivalence" {
			verdicts += fmt.Sprintf(" violations=%d", r.Violations)
		}
		tbl.Rows = append(tbl.Rows, []string{
			r.Arm, fmt.Sprint(r.Updates), fmt.Sprint(r.Events),
			fmt.Sprint(r.RetainedPeak), fmt.Sprint(r.RetainedFinal),
			fmt.Sprint(r.PrunedEvents), fmt.Sprintf("%.1f", r.PrunedMB),
			fmt.Sprintf("%.0f", r.EventsPerSec),
			fmt.Sprint(r.Flat), verdicts, cold,
		})
	}
	tbl.Notes = append(tbl.Notes,
		"expected shape: retained events plateau at the retention band (widest guarantee",
		"lookback + strategy hold + cadence slack) no matter how many events the soak",
		"records; the monitor's verdicts over the compacted trace equal the batch checker",
		"over an unpruned control; a cold start imports the verified checkpoint and",
		"replays only the private-journal tail")
	return tbl
}
