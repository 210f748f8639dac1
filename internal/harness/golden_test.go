package harness

import (
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current experiment output")

// TestGoldenExperiments holds every experiment's scale-1 table byte for
// byte against testdata/<id>.golden — exactly what `cmbench -exp <id>`
// prints, minus Println's trailing newline.  A change that moves a
// verdict, a count or a virtual-clock delay shows up here and in its
// diff.  Regenerate with
// `go test ./internal/harness -run TestGoldenExperiments -update`; the
// paper's verdicts are checked first, so -update cannot bless a broken
// one.
func TestGoldenExperiments(t *testing.T) {
	for _, x := range Suite {
		t.Run(x.ID, func(t *testing.T) {
			tbl := x.Run(1)
			checkVerdicts(t, tbl)
			got := tbl.String()
			path := filepath.Join("testdata", x.ID+".golden")
			if *update {
				if t.Failed() {
					return
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if got != string(want) {
				t.Errorf("%s output differs from %s:\n--- got ---\n%s--- want ---\n%s", x.ID, path, got, want)
			}
		})
	}
}

// mayFail names, per experiment, the columns where a FAILS mark is the
// paper's claim: the control or ablation arm is meant to fail there.
// cleanArm names the arm of an ablation that must hold everywhere.
var (
	mayFail = map[string][]string{
		"E2":  {"leads"},
		"E7":  {"daytime control"},
		"E10": {"strict order"},
		"E11": {"night guarantee"},
		"E12": {"leads"},
		"E13": {"leads"},
	}
	cleanArm = map[string]string{"E12": "reliable", "E13": "durable"}
)

// checkVerdicts holds a table to the verdicts the paper claims: no FAILS
// outside mayFail's columns (none at all on a clean arm), and the
// per-arm invariants of the reliability, crash, chaos and fleet
// experiments.
func checkVerdicts(t *testing.T, tbl Table) {
	t.Helper()
	for r, row := range tbl.Rows {
		clean := cleanArm[tbl.ID] != "" && row[0] == cleanArm[tbl.ID]
		for i, v := range row {
			exempt := !clean && slices.Contains(mayFail[tbl.ID], tbl.Columns[i])
			if strings.Contains(v, "FAILS") && !exempt {
				t.Errorf("%s row %d: %s = %q", tbl.ID, r, tbl.Columns[i], v)
			}
		}
		is := func(col, want string) {
			if got := cell(t, tbl, r, col); got != want {
				t.Errorf("%s row %d: %s = %q, want %q", tbl.ID, r, col, got, want)
			}
		}
		switch {
		case clean:
			is("final value correct", "true")
			if tbl.ID == "E13" && cell(t, tbl, r, "wal replayed") == "0" {
				t.Errorf("E13 row %d: a durable arm replayed nothing", r)
			}
		case tbl.ID == "E15":
			// Chaos may cost metric slack, never a lost value, a logical
			// failure or a true reorder on a link.
			is("lost", "0")
			is("converged", "true")
			for _, col := range []string{"fail m/l", "prop-7"} {
				if v := cell(t, tbl, r, col); !strings.HasSuffix(v, "/0") {
					t.Errorf("E15 row %d: %s = %q, want x/0", r, col, v)
				}
			}
		case tbl.ID == "E17":
			is("trace", "0 violations")
		}
	}
	if tbl.ID == "E17" && cell(t, tbl, len(tbl.Rows)-1, "moved") == "0" {
		t.Error("E17: the live-rebalance arm moved no bases, so it no longer exercises handoff")
	}
}
