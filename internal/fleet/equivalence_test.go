package fleet

import (
	"fmt"
	"testing"

	"cmtk/internal/data"
	"cmtk/internal/guarantee"
	"cmtk/internal/obs"
	"cmtk/internal/trace"
)

// equivRun drives the chain workload through a fleet and returns the
// per-item outcome: final values of every derived item, per-family
// guarantee verdicts, and the checker's violation count.  When grow is
// set, a new member joins and a rebalance cuts over at the halfway
// point, with the second half of the workload running on the new
// ownership — the sharded run must be observationally identical to the
// 1-shell run anyway.
func equivRun(t *testing.T, members []string, families, rounds int, grow bool) (map[string]string, map[string]bool, int) {
	t.Helper()
	sp, initial := chainSpec(t, families)
	f, err := New(sp, Options{
		Members: members,
		Trace:   trace.New(initial),
		Metrics: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	defer f.Stop()
	seedConds(t, f, families)

	post := func(lo, hi int) {
		for r := lo; r <= hi; r++ {
			for i := 0; i < families; i++ {
				item := data.Item(fmt.Sprintf("X%d", i))
				if err := f.Post(item, data.NewInt(int64(r-1)), data.NewInt(int64(r))); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	post(1, rounds/2)
	if grow {
		f.Drain()
		if err := f.AddShell("joined"); err != nil {
			t.Fatal(err)
		}
		rep, err := f.Rebalance(append(append([]string{}, members...), "joined"))
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Moves) == 0 {
			t.Fatal("mid-run rebalance moved nothing; the equivalence run would not exercise handoff")
		}
	}
	post(rounds/2+1, rounds)
	f.Drain()

	finals := map[string]string{}
	for i := 0; i < families; i++ {
		for _, fam := range []string{"Y", "Z", "Q"} {
			name := fmt.Sprintf("%s%d", fam, i)
			v, ok, err := f.ReadAux(data.Item(name))
			if err != nil || !ok {
				t.Fatalf("%s unreadable: ok=%v err=%v", name, ok, err)
			}
			finals[name] = v.String()
		}
	}
	verdicts := map[string]bool{}
	tr := f.Trace()
	for i := 0; i < families; i++ {
		for _, pair := range [][2]string{
			{fmt.Sprintf("X%d", i), fmt.Sprintf("Y%d", i)},
			{fmt.Sprintf("Y%d", i), fmt.Sprintf("Z%d", i)},
			{fmt.Sprintf("X%d", i), fmt.Sprintf("Q%d", i)},
		} {
			rep := guarantee.Follows{X: pair[0], Y: pair[1]}.Check(tr)
			verdicts[pair[0]+"->"+pair[1]] = rep.Holds
		}
	}
	return finals, verdicts, len(f.CheckTrace())
}

// The tentpole acceptance test: the same workload on a 1-shell fleet
// and on a 3-shell fleet that grows to 4 via a mid-run rebalance must
// produce identical per-item final values, identical guarantee
// verdicts, and zero Appendix A.2 checker violations on both sides.
func TestStaticVsShardedEquivalence(t *testing.T) {
	const families, rounds = 8, 6

	staticFinals, staticVerdicts, staticViol := equivRun(t, []string{"solo"}, families, rounds, false)
	shardFinals, shardVerdicts, shardViol := equivRun(t, []string{"s1", "s2", "s3"}, families, rounds, true)

	if staticViol != 0 {
		t.Fatalf("1-shell run: %d checker violations", staticViol)
	}
	if shardViol != 0 {
		t.Fatalf("sharded run: %d checker violations", shardViol)
	}
	for name, want := range staticFinals {
		if got := shardFinals[name]; got != want {
			t.Errorf("final %s: sharded %s, static %s", name, got, want)
		}
	}
	for g, want := range staticVerdicts {
		if !want {
			t.Errorf("guarantee %s does not hold even on the 1-shell run", g)
		}
		if got := shardVerdicts[g]; got != want {
			t.Errorf("guarantee %s: sharded verdict %v, static verdict %v", g, got, want)
		}
	}
}
