package guarantee

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/event"
	"cmtk/internal/rule"
	"cmtk/internal/trace"
)

// TestHorizonProperty is the retention-safety property test: whatever
// random execution runs and whatever bounded windows are registered
// (including κ=0 and zero-window invariants), folding everything before
// Monitor.Horizon() after every advance never changes a verdict —
// equivalently, no pruned event could still have participated in any
// pending guarantee window.  Each iteration replays one random workload
// twice: an unpruned control decided by the oracle, and an adversarially
// compacted arm checked by the monitor, optionally with a mid-run
// handoff to a re-registered monitor (the rebalance path).  The control
// is also decided in one shot by CheckAll, with the two unbounded
// directions added, against the same oracle.
func TestHorizonProperty(t *testing.T) {
	preds := make([]rule.Expr, 2)
	for i, src := range []string{"Y < 100", "X < 100"} { // invented values break the first
		var err error
		if preds[i], err = rule.ParseExpr(src); err != nil {
			t.Fatal(err)
		}
	}
	bases := []string{"X", "Y", "Z"}
	items := make([]data.ItemName, len(bases))
	for i, b := range bases {
		items[i] = data.Item(b)
	}
	for iter := 0; iter < 60; iter++ {
		iter := iter
		t.Run(fmt.Sprintf("iter=%d", iter), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + iter)))

			// Random bounded guarantee set; κ=0 and duplicate pairs on
			// purpose.
			kappas := []time.Duration{0, time.Second, 3 * time.Second, 7 * time.Second}
			gs := []Guarantee{
				MetricFollows{X: "X", Y: "Y", Kappa: kappas[rng.Intn(len(kappas))]},
				MetricLeads{X: "X", Y: "Y", Kappa: kappas[rng.Intn(len(kappas))]},
				ExistsWithin{Ref: "Y", Target: "Z", Kappa: kappas[rng.Intn(len(kappas))]},
				Invariant{Label: "bounded", Pred: preds[rng.Intn(len(preds))]},
			}

			// Random workload: mostly propagate X→Y→Z with jittered lag,
			// sometimes invent values or stall propagation so violated
			// executions are exercised too.  Time advances in whole-second
			// steps with occasional same-instant bursts.
			control := trace.New(nil)
			sec := 0
			appendW := func(tr *trace.Trace, s int, item data.ItemName, v int64) {
				tr.Append(&event.Event{Time: at(s), Site: "s", Desc: event.W(item, data.NewInt(v))})
			}
			type rec struct {
				s    int
				item data.ItemName
				v    int64
			}
			var script []rec
			for i := 0; i < 80+rng.Intn(80); i++ {
				v := int64(rng.Intn(8))
				script = append(script, rec{sec, items[0], v})
				if rng.Intn(10) > 0 { // usually propagate
					lag := rng.Intn(4)
					script = append(script, rec{sec + lag, items[1], v})
					if rng.Intn(4) > 0 {
						script = append(script, rec{sec + lag + rng.Intn(3), items[2], v})
					}
				}
				if rng.Intn(12) == 0 { // invented value on Y
					script = append(script, rec{sec + 1, items[1], 100 + int64(rng.Intn(5))})
				}
				sec += 1 + rng.Intn(3)
			}
			// Script times must be nondecreasing for replay.
			for i := 1; i < len(script); i++ {
				if script[i].s < script[i-1].s {
					script[i].s = script[i-1].s
				}
			}
			for _, r := range script {
				appendW(control, r.s, r.item, r.v)
			}
			want := oracleAll(control, gs...)
			all := append(gs[:len(gs):len(gs)], Follows{X: "X", Y: "Y"},
				Leads{X: "X", Y: "Y", Settle: kappas[rng.Intn(len(kappas))]})
			if want, got := oracleAll(control, all...), CheckAll(control, all...); !EqualVerdicts(want, got) {
				t.Fatalf("one-shot verdicts diverged:\noracle:   %+v\nCheckAll: %+v", want, got)
			}

			// Compacted arm: advance + fold exactly at the horizon every
			// few events; optionally hand off mid-run.
			m, err := NewMonitor(gs...)
			if err != nil {
				t.Fatal(err)
			}
			tr := trace.New(nil)
			handoffAt := -1
			if rng.Intn(2) == 0 {
				handoffAt = rng.Intn(len(script))
			}
			cadence := 1 + rng.Intn(9)
			for i, r := range script {
				appendW(tr, r.s, r.item, r.v)
				if i == handoffAt {
					blob, err := m.Handoff()
					if err != nil {
						t.Fatal(err)
					}
					m2, err := NewMonitor(gs...)
					if err != nil {
						t.Fatal(err)
					}
					if err := m2.Resume(blob); err != nil {
						t.Fatal(err)
					}
					m = m2
				}
				if (i+1)%cadence == 0 {
					m.Advance(tr)
					if h, ok := m.Horizon(); ok {
						before := tr.BaseSeq()
						stats := tr.CompactBefore(h, 0)
						// The fold must be a prefix strictly older than the
						// horizon: no pruned event could participate in a
						// pending window.
						if stats.PrunedEvents > 0 && !stats.CutTime.Before(h) {
							t.Fatalf("pruned up to %v, horizon %v", stats.CutTime, h)
						}
						if stats.CutSeq < before {
							t.Fatal("cut moved backwards")
						}
					}
				}
			}
			got := m.Reports(tr)
			if !EqualVerdicts(want, got) {
				t.Fatalf("verdicts diverged (cadence=%d handoff=%d):\noracle:  %+v\nmonitor: %+v",
					cadence, handoffAt, want, got)
			}
		})
	}
}

// TestSeededMutations is the other half of the gate: a trace on which
// every copy guarantee holds is damaged in one seeded place, and the
// damage must be seen — by the form that names that kind of damage — and
// seen alike by the oracle, by CheckAll and (for the windowed forms) by a
// Monitor that compacted its way through the trace.
func TestSeededMutations(t *testing.T) {
	const kappa = 5 * time.Second
	type rec struct {
		s    int
		item data.ItemName
		v    int64
	}
	// Six keys, eight rounds; in each round X(k) takes two fresh values a
	// second apart and Y(k) copies both three seconds later, in order.
	var base []rec
	isY := func(r rec) bool { return r.item.Base == "Y" }
	for round := 0; round < 8; round++ {
		for k := 0; k < 6; k++ {
			x, y := data.Item("X", data.NewInt(int64(k))), data.Item("Y", data.NewInt(int64(k)))
			t0, v := round*100+k*10, int64(round*1000+k*10)
			base = append(base, rec{t0, x, v + 1}, rec{t0 + 1, x, v + 2}, rec{t0 + 3, y, v + 1}, rec{t0 + 4, y, v + 2})
		}
	}
	gs := []Guarantee{
		Follows{X: "X", Y: "Y"},
		Leads{X: "X", Y: "Y", Settle: kappa},
		StrictlyFollows{X: "X", Y: "Y"},
		MetricFollows{X: "X", Y: "Y", Kappa: kappa},
		MetricLeads{X: "X", Y: "Y", Kappa: kappa},
	}
	windowed := []Guarantee{gs[3], gs[4]}
	build := func(script []rec) *trace.Trace {
		sort.SliceStable(script, func(i, j int) bool { return script[i].s < script[j].s })
		tr := trace.New(nil)
		for _, r := range script {
			write(tr, r.s, r.item, data.NewInt(r.v))
		}
		write(tr, 10_000, data.Item("Z"), data.NewInt(0)) // every window closed
		return tr
	}
	if reps := CheckAll(build(slices.Clone(base)), gs...); !AllHold(reps) {
		t.Fatalf("the undamaged trace does not hold: %+v", reps)
	}

	mutations := []struct {
		name  string
		trips []string // at least one of these must be violated
		apply func(script []rec, i int) []rec
	}{
		{"drop", []string{"leads(X,Y)", "metric-leads(X,Y,5s)"}, func(s []rec, i int) []rec {
			return slices.Delete(s, i, i+1)
		}},
		{"delay", []string{"metric-follows(X,Y,5s)", "metric-leads(X,Y,5s)"}, func(s []rec, i int) []rec {
			s[i].s += 20
			return s
		}},
		{"invent", []string{"follows(X,Y)", "metric-follows(X,Y,5s)"}, func(s []rec, i int) []rec {
			return slices.Insert(s, i+1, rec{s[i].s, s[i].item, 999_999})
		}},
		{"swap", []string{"strictly-follows(X,Y)"}, func(s []rec, i int) []rec {
			// Y's two writes of a round sit side by side.
			if j := i + 1; j < len(s) && isY(s[j]) {
				s[i].v, s[j].v = s[j].v, s[i].v
			} else {
				s[i].v, s[i-1].v = s[i-1].v, s[i].v
			}
			return s
		}},
	}
	for _, mu := range mutations {
		for seed := int64(0); seed < 12; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", mu.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				script := slices.Clone(base)
				i := rng.Intn(len(script))
				for !isY(script[i]) {
					i = (i + 1) % len(script)
				}
				tr := build(mu.apply(script, i))

				want, got := oracleAll(tr, gs...), CheckAll(tr, gs...)
				if !EqualVerdicts(want, got) {
					t.Fatalf("verdicts diverged:\noracle:   %+v\nCheckAll: %+v", want, got)
				}
				tripped := false
				for _, r := range got {
					if !r.Holds && slices.Contains(mu.trips, r.Guarantee) {
						tripped = true
					}
				}
				if !tripped {
					t.Fatalf("the damage went unseen by %v: %+v", mu.trips, got)
				}

				m, err := NewMonitor(windowed...)
				if err != nil {
					t.Fatal(err)
				}
				retained := replayMonitored(t, tr, m, 1+rng.Intn(7), true)
				if want, got := oracleAll(tr, windowed...), m.Reports(retained); !EqualVerdicts(want, got) {
					t.Fatalf("verdicts diverged:\noracle:  %+v\nmonitor: %+v", want, got)
				}
			})
		}
	}
}
