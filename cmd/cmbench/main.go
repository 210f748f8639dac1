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
// benchmarks/run.sh, then cmperf -compare on paired runs.  The
// deterministic tables' scale-1 output is committed under
// internal/harness/testdata/ and held by TestGoldenExperiments.
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

	byID := map[string]harness.Experiment{}
	for _, x := range harness.Suite {
		byID[x.ID] = x
	}
	var selected []harness.Experiment
	if *exps == "all" {
		selected = harness.Suite
	} else {
		for _, id := range strings.Split(*exps, ",") {
			id = strings.TrimSpace(strings.ToUpper(id))
			x, ok := byID[id]
			if !ok {
				fmt.Fprintf(os.Stderr, "cmbench: unknown experiment %q (want E1..E13, E15, E17, E18, F1, F2)\n", id)
				os.Exit(2)
			}
			selected = append(selected, x)
		}
	}
	for _, x := range selected {
		before := obs.Default.Snapshot()
		fmt.Println(x.Run(*scale))
		if *obsMode {
			delta := obs.Default.Snapshot().Delta(before)
			fmt.Printf("-- %s metric deltas (%d series moved) --\n%s\n", x.ID, len(delta), delta.Format())
		}
	}
}
