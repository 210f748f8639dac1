// Command cmbench runs the experiment suite that reproduces the paper's
// scenarios (see DESIGN.md §4 and EXPERIMENTS.md) and prints the result
// tables.
//
// Usage:
//
//	cmbench [-scale N] [-exp E1,E2,...] [-obs]
//
// -obs snapshots the process-wide metrics registry around each
// experiment and prints the per-experiment deltas (every counter and
// histogram series that moved), so a run doubles as an instrumentation
// audit.  See OBSERVABILITY.md for the metric catalogue.
//
// The tables are verdict shapes (which guarantees hold, zero violations,
// flat retention).  Timing a change is cmperf's job: bash
// benchmarks/run.sh, then cmperf -compare on paired runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cmtk/internal/harness"
	"cmtk/internal/obs"
)

func main() {
	scale := flag.Int("scale", 1, "workload scale factor")
	exps := flag.String("exp", "all", "comma-separated experiment ids (E1..E13, E15, E17, E18, F1, F2) or 'all'")
	obsMode := flag.Bool("obs", false, "print per-experiment metric deltas from the obs registry")
	flag.Parse()

	runners := map[string]func() harness.Table{
		"E1":  func() harness.Table { return harness.E1(100 * *scale) },
		"E2":  func() harness.Table { return harness.E2(60 * *scale) },
		"E3":  func() harness.Table { return harness.E3(150 * *scale) },
		"E4":  func() harness.Table { return harness.E4(200 * *scale) },
		"E5":  func() harness.Table { return harness.E5(8 * *scale) },
		"E6":  func() harness.Table { return harness.E6(10 * *scale) },
		"E7":  func() harness.Table { return harness.E7(4 * *scale) },
		"E8":  func() harness.Table { return harness.E8() },
		"E9":  func() harness.Table { return harness.E9(60 * *scale) },
		"E10": func() harness.Table { return harness.E10(20 * *scale) },
		"E11": func() harness.Table { return harness.E11(4 * *scale) },
		"E12": func() harness.Table { return harness.E12(3 * *scale) },
		"E13": func() harness.Table { return harness.E13(3 * *scale) },
		"E15": func() harness.Table { return harness.E15(60 * *scale) },
		"E17": func() harness.Table { return harness.E17(2000 * *scale) },
		"E18": func() harness.Table { return harness.E18(40000**scale, 20000**scale) },
		"F1":  func() harness.Table { return harness.F1(100 * *scale) },
		"F2":  func() harness.Table { return harness.F2(30 * *scale) },
	}
	order := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E15", "E17", "E18", "F1", "F2"}

	var selected []string
	if *exps == "all" {
		selected = order
	} else {
		for _, id := range strings.Split(*exps, ",") {
			id = strings.TrimSpace(strings.ToUpper(id))
			if _, ok := runners[id]; !ok {
				fmt.Fprintf(os.Stderr, "cmbench: unknown experiment %q (want E1..E13, E15, E17, E18, F1, F2)\n", id)
				os.Exit(2)
			}
			selected = append(selected, id)
		}
	}
	for _, id := range selected {
		before := obs.Default.Snapshot()
		fmt.Println(runners[id]())
		if *obsMode {
			delta := obs.Default.Snapshot().Delta(before)
			fmt.Printf("-- %s metric deltas (%d series moved) --\n%s\n", id, len(delta), delta.Format())
		}
	}
}
