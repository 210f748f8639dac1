package vclock_test

import (
	"testing"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/event"
	"cmtk/internal/guarantee"
	"cmtk/internal/trace"
	"cmtk/internal/vclock"
)

func TestSkewedClockBasics(t *testing.T) {
	clk := vclock.NewVirtual(vclock.Epoch)
	sk := vclock.NewSkewed(clk, 10*time.Second)
	if got := sk.Now(); !got.Equal(vclock.Epoch.Add(10 * time.Second)) {
		t.Fatalf("Now = %v, want Epoch+10s", got)
	}
	// Timers run on the inner clock: relative delays are unaffected by
	// absolute skew.
	ran := false
	sk.AfterFunc(5*time.Second, func() { ran = true })
	clk.Advance(4 * time.Second)
	if ran {
		t.Fatal("timer fired early")
	}
	clk.Advance(time.Second)
	if !ran {
		t.Fatal("timer did not fire after 5s of inner time")
	}
	sk.SetOffset(-3 * time.Second)
	if got, want := sk.Now(), clk.Now().Add(-3*time.Second); !got.Equal(want) {
		t.Fatalf("Now = %v, want %v", got, want)
	}
	sk.Resync()
	if off := sk.Now().Sub(clk.Now()); off != 0 {
		t.Fatalf("offset after Resync = %v", off)
	}
	if !sk.Now().Equal(clk.Now()) {
		t.Fatal("resynced clock disagrees with inner")
	}
}

// skewScenario replays a two-process execution into a shared trace:
// process X records writes on the true clock; process Y applies each of
// X's values exactly propDelay later but stamps the event off its own,
// possibly skewed, clock — precisely what a skewed CM-Shell does to the
// trace.  offsets[i] is Y's clock offset when it applies update i.
func skewScenario(offsets []time.Duration, propDelay time.Duration) *trace.Trace {
	clk := vclock.NewVirtual(vclock.Epoch)
	yClock := vclock.NewSkewed(clk, 0)
	tr := trace.New(nil)
	itemX, itemY := data.Item("X"), data.Item("Y")
	at := func(d time.Duration) time.Time { return vclock.Epoch.Add(d) }
	for i, off := range offsets {
		v := data.NewInt(int64(i + 1))
		base := time.Duration(10*(i+1)) * time.Second
		clk.AdvanceTo(at(base))
		tr.Append(&event.Event{Time: clk.Now(), Site: "A", Desc: event.W(itemX, v)})
		clk.AdvanceTo(at(base + propDelay))
		yClock.SetOffset(off)
		tr.Append(&event.Event{Time: yClock.Now(), Site: "B", Desc: event.W(itemY, v)})
	}
	// Trailing marker so the checker's horizon covers every X sample.
	clk.Advance(time.Minute)
	tr.Append(&event.Event{Time: clk.Now(), Site: "A", Desc: event.W(data.Item("Zend"), data.NewInt(0))})
	return tr
}

// TestSkewShiftsMetricLeadsVerdictExactly walks the metric-leads bound:
// with propagation delay d and skew σ, the apparent delay is d+σ, so the
// verdict flips exactly when d+σ exceeds κ — at the boundary it still
// holds — and recovers for updates recorded after re-sync.
func TestSkewShiftsMetricLeadsVerdictExactly(t *testing.T) {
	const d = 2 * time.Second
	g := guarantee.MetricLeads{X: "X", Y: "Y", Kappa: 5 * time.Second}

	// No skew: d = 2s <= 5s for every update.
	rep := g.Check(skewScenario([]time.Duration{0, 0, 0}, d))
	if !rep.Holds || rep.Checked != 3 || len(rep.Violations) != 0 {
		t.Fatalf("no-skew: %+v", rep)
	}

	// Skew exactly at the slack (σ = κ−d): apparent delay d+σ = κ, still
	// within the bound — the verdict must NOT flip early.
	rep = g.Check(skewScenario([]time.Duration{3 * time.Second, 3 * time.Second, 3 * time.Second}, d))
	if !rep.Holds || len(rep.Violations) != 0 {
		t.Fatalf("boundary skew κ-d: %+v", rep)
	}

	// One nanosecond past the slack: every skewed update violates.
	rep = g.Check(skewScenario([]time.Duration{
		3*time.Second + time.Nanosecond,
		3*time.Second + time.Nanosecond,
		3*time.Second + time.Nanosecond,
	}, d))
	if rep.Holds || len(rep.Violations) != 3 {
		t.Fatalf("past-boundary skew: want 3 violations, got %+v", rep)
	}

	// Mid-run drift and re-sync: update 2 lands while Y is 4s fast
	// (apparent delay 6s > κ), updates 1 and 3 on a synced clock.  The
	// verdict degrades for exactly the skewed update and recovers after
	// re-sync — the exact correlation a chaos campaign asserts.
	rep = g.Check(skewScenario([]time.Duration{0, 4 * time.Second, 0}, d))
	if rep.Holds || rep.Checked != 3 || len(rep.Violations) != 1 {
		t.Fatalf("drift+resync: want exactly 1 violation of 3 checked, got %+v", rep)
	}
}

// TestNegativeSkewBreaksMetricFollowsExactly: a slow receiver clock makes
// the replica's write appear BEFORE the primary ever held the value,
// violating metric-follows; within the κ window it holds.
func TestNegativeSkewBreaksMetricFollowsExactly(t *testing.T) {
	const d = 2 * time.Second
	g := guarantee.MetricFollows{X: "X", Y: "Y", Kappa: 5 * time.Second}

	// Y stamps d-1s... offset -1s: apparent apply time is 1s after the
	// write — fine.
	rep := g.Check(skewScenario([]time.Duration{-time.Second, -time.Second, -time.Second}, d))
	if !rep.Holds || rep.Checked != 3 || len(rep.Violations) != 0 {
		t.Fatalf("small negative skew: %+v", rep)
	}

	// Offset -3s: apparent apply time precedes the primary's write by 1s —
	// Y holds a value X has never held.  Every update violates.
	rep = g.Check(skewScenario([]time.Duration{-3 * time.Second, -3 * time.Second, -3 * time.Second}, d))
	if rep.Holds || len(rep.Violations) != 3 {
		t.Fatalf("large negative skew: want 3 violations, got %+v", rep)
	}

	// Re-sync restores the verdict for later updates exactly.
	rep = g.Check(skewScenario([]time.Duration{-3 * time.Second, 0, 0}, d))
	if rep.Holds || len(rep.Violations) != 1 {
		t.Fatalf("resync: want exactly 1 violation, got %+v", rep)
	}
}
