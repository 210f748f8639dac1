package harness

import "testing"

// TestE18RetentionShape the reduced-scale soak-smoke: both arms must
// report flat retention, batch-equal verdicts, zero checker violations,
// and a verified checkpoint cold start.  CI runs this under -race; the
// full-scale soak (≥10M recorded events) is `cmbench -exp E18 -scale 125`.
func TestE18RetentionShape(t *testing.T) {
	soak, eq := 40000, 20000
	if testing.Short() {
		soak, eq = 15000, 10000
	}
	rows := E18Rows(soak, eq)
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Events < uint64(2*r.Updates) {
			t.Errorf("%s: %d events from %d updates; rules did not fire", r.Arm, r.Events, r.Updates)
		}
		if r.PrunedEvents == 0 {
			t.Errorf("%s: nothing pruned", r.Arm)
		}
		if !r.Flat {
			t.Errorf("%s: retained peak %d above band %d; memory is not bounded", r.Arm, r.RetainedPeak, e18Band())
		}
		if r.RetainedFinal > r.RetainedPeak {
			t.Errorf("%s: final %d above peak %d", r.Arm, r.RetainedFinal, r.RetainedPeak)
		}
		if !r.VerdictsEqual {
			t.Errorf("%s: verdicts diverged from control", r.Arm)
		}
		switch r.Arm {
		case "equivalence":
			if r.Violations != 0 {
				t.Errorf("checker found %d violations", r.Violations)
			}
		case "soak":
			if !r.ColdStartOK {
				t.Error("cold start did not come back from the verified checkpoint")
			}
			if r.CheckpointB == 0 {
				t.Error("no durable checkpoint written")
			}
			// O(tail): the records replayed at cold start are bounded by the
			// private journal's checkpoint threshold, not by soak length.
			if r.ColdStartTail > 10000 {
				t.Errorf("cold start replayed %d records; tail is not bounded", r.ColdStartTail)
			}
		}
	}
}
