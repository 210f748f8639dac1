package harness

import (
	"testing"
)

// TestE15ChaosSoakInvariants runs one arm per fault campaign and holds it
// to the Section 5 contract with exact counts.  The arms run on a virtual
// clock with a fixed seed, so every run of an arm is bit-identical and
// the expectations below are equalities, not lower bounds.
func TestE15ChaosSoakInvariants(t *testing.T) {
	// Deadline misses are pinned per arm: the fault window covers exactly
	// the second quarter of the schedule, and with 40 updates at 10/s the
	// runs below reproduce these counts bit-for-bit.
	wantMisses := map[string]int{
		"baseline":  0,
		"partition": 0,  // 1s retry replays the 1s outage within the 2s deadline
		"lossy50":   0,  // first retry after a drop lands within the deadline
		"slow300ms": 0,  // 400ms propagation < 2s deadline
		"skew+45s":  10, // the quarter of updates applied while B read +45s
	}
	for _, campaign := range e15Campaigns {
		row := e15Run(campaign, 10, 40)
		if row.Updates != 40 {
			t.Errorf("%s: planned %d updates, want 40", campaign, row.Updates)
		}
		// Faults may never lose values, corrupt logic, or truly reorder a
		// link — the degradation budget is metric failures and deadline
		// misses only.
		if row.Lost != 0 {
			t.Errorf("%s: lost = %d, want 0", campaign, row.Lost)
		}
		if row.LogicalFailures != 0 {
			t.Errorf("%s: logical failures = %d, want 0", campaign, row.LogicalFailures)
		}
		if row.Prop7 != 0 {
			t.Errorf("%s: true prop-7 violations = %d, want 0", campaign, row.Prop7)
		}
		if campaign != "skew+45s" && row.Prop7Apparent != 0 {
			t.Errorf("%s: apparent prop-7 violations = %d, want 0", campaign, row.Prop7Apparent)
		}
		if campaign == "skew+45s" && row.Prop7Apparent == 0 {
			t.Errorf("skew arm recorded no apparent prop-7 violations; the stepped clock must show up in the trace")
		}
		if !row.Converged {
			t.Errorf("%s: replica did not converge to the last written values", campaign)
		}
		if !row.FollowsHolds || !row.LeadsHolds {
			t.Errorf("%s: logical guarantees degraded: follows=%v leads=%v",
				campaign, row.FollowsHolds, row.LeadsHolds)
		}
		if !row.SkewExact {
			t.Errorf("%s: MetricLeads verdict diverged from the trace-derived expectation", campaign)
		}
		if want := wantMisses[campaign]; row.DeadlineMisses != want {
			t.Errorf("%s: deadline misses = %d, want exactly %d", campaign, row.DeadlineMisses, want)
		}
		// Nothing dropped from outage buffers, queues drained.
		if row.BufferDropped != 0 || row.QueueDepth != 0 {
			t.Errorf("%s: dropped=%d queue=%d, want both 0",
				campaign, row.BufferDropped, row.QueueDepth)
		}
		if campaign == "baseline" && row.RecoverySec != 0 {
			t.Errorf("baseline: recovery = %vs, want 0", row.RecoverySec)
		}
	}
}

// TestE15Deterministic re-runs one faulted arm and requires bit-identical
// rows: the chaos soak's exact assertions are only meaningful if the
// arm is reproducible.
func TestE15Deterministic(t *testing.T) {
	a := e15Run("partition", 10, 40)
	b := e15Run("partition", 10, 40)
	if a != b {
		t.Fatalf("partition arm not deterministic:\n  first  %+v\n  second %+v", a, b)
	}
}
