// Benchmarks regenerating every scenario of the paper's evaluation — one
// benchmark per experiment in EXPERIMENTS.md.  Each iteration runs the
// full scenario (deployment, workload, trace validation, guarantee
// checks); the reported ns/op is the cost of reproducing the experiment,
// and failed shape assertions abort the run.
//
// Run with:
//
//	go test -bench=. -benchmem
package cmtk_test

import (
	"strings"
	"testing"

	"cmtk/internal/harness"
)

// requireShape fails the benchmark if a table reports violated guarantees
// where the paper claims they hold (rows whose guarantee columns are
// expected to fail are exempted by the experiments themselves).
func requireNoViolationMarks(b *testing.B, tbl harness.Table, exemptCols ...string) {
	b.Helper()
	exempt := map[int]bool{}
	for i, c := range tbl.Columns {
		for _, e := range exemptCols {
			if c == e {
				exempt[i] = true
			}
		}
	}
	for _, row := range tbl.Rows {
		for i, cell := range row {
			if exempt[i] {
				continue
			}
			if strings.Contains(cell, "FAILS") {
				b.Fatalf("%s: unexpected failure in column %q: %v", tbl.ID, tbl.Columns[i], row)
			}
		}
	}
}

func BenchmarkE1NotifyPropagation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := harness.E1(60)
		requireNoViolationMarks(b, tbl)
	}
}

func BenchmarkE2Polling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// The leads column is expected to fail at long periods — that IS
		// the paper's claim.
		tbl := harness.E2(50)
		requireNoViolationMarks(b, tbl, "leads")
	}
}

func BenchmarkE3CachedPropagation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := harness.E3(100)
		requireNoViolationMarks(b, tbl)
	}
}

func BenchmarkE4Demarcation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := harness.E4(100)
		requireNoViolationMarks(b, tbl)
	}
}

func BenchmarkE5Referential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := harness.E5(5)
		requireNoViolationMarks(b, tbl)
	}
}

func BenchmarkE6Monitor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := harness.E6(6)
		requireNoViolationMarks(b, tbl)
	}
}

func BenchmarkE7Periodic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// The daytime control is expected to fail: balances diverge
		// between batches during business hours.
		tbl := harness.E7(3)
		requireNoViolationMarks(b, tbl, "daytime control")
	}
}

func BenchmarkE8Failures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := harness.E8()
		if len(tbl.Rows) != 5 {
			b.Fatalf("E8 rows = %d", len(tbl.Rows))
		}
	}
}

func BenchmarkE9Retarget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := harness.E9(40)
		requireNoViolationMarks(b, tbl)
	}
}

func BenchmarkF1Architecture(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := harness.F1(60)
		requireNoViolationMarks(b, tbl)
	}
}

func BenchmarkF2Pipeline(b *testing.B) {
	if testing.Short() {
		b.Skip("real-clock TCP experiment")
	}
	for i := 0; i < b.N; i++ {
		tbl := harness.F2(20)
		requireNoViolationMarks(b, tbl)
	}
}

func BenchmarkE10InOrderAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := harness.E10(16)
		// The scrambled row is expected to fail strict order — that is the
		// ablation's point.
		requireNoViolationMarks(b, tbl, "strict order")
	}
}

func BenchmarkE12ReliableDelivery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := harness.E12(3)
		if len(tbl.Rows) != 4 {
			b.Fatalf("E12 rows = %d", len(tbl.Rows))
		}
		// Raw links are expected to fail leads and end stale — that IS the
		// ablation; the reliable rows must be clean everywhere.
		for _, row := range tbl.Rows {
			if row[0] == "reliable" {
				for i, cell := range row {
					if strings.Contains(cell, "FAILS") {
						b.Fatalf("E12 reliable arm failed column %q: %v", tbl.Columns[i], row)
					}
				}
			}
		}
		requireNoViolationMarks(b, tbl, "leads", "final value correct")
	}
}

func BenchmarkE17FleetScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := harness.E17(500)
		if len(tbl.Rows) != 6 {
			b.Fatalf("E17 rows = %d", len(tbl.Rows))
		}
		// Sharding may never trade away correctness: every arm — the
		// 1-shell baseline, every static fleet width, and the arm that
		// rebalances mid-run — must record an Appendix A.2-valid trace.
		for _, row := range tbl.Rows {
			if row[len(row)-1] != "0 violations" {
				b.Fatalf("E17 arm recorded an invalid trace: %v", row)
			}
		}
		// The rebalance arm must actually have moved ownership, or the
		// sweep silently stopped exercising handoff.
		movedSomething := false
		for _, row := range tbl.Rows {
			if cellOf(b, tbl, row, "moved") != "0" {
				movedSomething = true
			}
		}
		if !movedSomething {
			b.Fatal("E17: no arm moved any bases; the live-rebalance arm is not exercising handoff")
		}
	}
}

func BenchmarkE11ClockSkew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := harness.E11(3)
		// The over-margin skew row is expected to fail.
		requireNoViolationMarks(b, tbl, "night guarantee")
		if len(tbl.Rows) != 3 {
			b.Fatalf("E11 rows = %d", len(tbl.Rows))
		}
	}
}

func BenchmarkE13CrashRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := harness.E13(3)
		if len(tbl.Rows) != 4 {
			b.Fatalf("E13 rows = %d", len(tbl.Rows))
		}
		// The in-memory arm is expected to lose its outbox with the process
		// and end stale — that IS the ablation; every durable arm must
		// replay its journal and come out clean everywhere.
		for _, row := range tbl.Rows {
			if row[0] != "durable" {
				continue
			}
			for i, cell := range row {
				if strings.Contains(cell, "FAILS") {
					b.Fatalf("E13 durable arm failed column %q: %v", tbl.Columns[i], row)
				}
			}
			if row[6] == "0" {
				b.Fatalf("E13 durable arm replayed nothing: %v", row)
			}
			if row[8] != "true" {
				b.Fatalf("E13 durable arm ended stale: %v", row)
			}
		}
		requireNoViolationMarks(b, tbl, "leads", "final value correct")
	}
}

func BenchmarkE15ChaosSoak(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := harness.E15(40)
		if len(tbl.Rows) != 15 {
			b.Fatalf("E15 rows = %d", len(tbl.Rows))
		}
		// Every arm must converge losslessly with its logical guarantees
		// intact and zero true order violations — chaos may only cost
		// metric slack, never correctness.
		for _, row := range tbl.Rows {
			if lost := cellOf(b, tbl, row, "lost"); lost != "0" {
				b.Fatalf("E15 arm lost values: %v", row)
			}
			if fail := cellOf(b, tbl, row, "fail m/l"); !strings.HasSuffix(fail, "/0") {
				b.Fatalf("E15 arm saw logical failures: %v", row)
			}
			if p7 := cellOf(b, tbl, row, "prop-7"); !strings.HasSuffix(p7, "/0") {
				b.Fatalf("E15 arm truly reordered a link: %v", row)
			}
			if conv := cellOf(b, tbl, row, "converged"); conv != "true" {
				b.Fatalf("E15 arm did not converge: %v", row)
			}
		}
		requireNoViolationMarks(b, tbl)
	}
}

// cellOf fetches a named column from a row of tbl.
func cellOf(b *testing.B, tbl harness.Table, row []string, col string) string {
	b.Helper()
	for i, c := range tbl.Columns {
		if c == col {
			return row[i]
		}
	}
	b.Fatalf("%s: no column %q", tbl.ID, col)
	return ""
}
