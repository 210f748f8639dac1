package main

// cmperf -compare A.jsonl B.jsonl: the table a later change pastes.  A is
// the parent's runs, B the change's, both written with -out.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// readRecords loads the results one -out file holds, by workload and
// metric.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// verdict judges the change's runs b against the parent's runs a.  worse
// is how far b's median is on the wrong side of a's, as a share of a's;
// spread is the distance between a's quartiles, as a share of its median.
//
//	unresolved  the parent's own runs spread wider than the bound
//	regressed   worse by more than the bound
//	improved    better by more than the parent's spread
//	unchanged   otherwise
func verdict(a, b []float64, e entry) (worse, spread float64, v string) {
	q1, med, q3 := quartiles(a)
	_, medB, _ := quartiles(b)
	if med == 0 {
		return 0, 0, "unresolved"
	}
	worse = (medB - med) / med
	if e.better == "higher" {
		worse = -worse
	}
	spread = (q3 - q1) / med
	if spread < 0 {
		spread = -spread
	}
	switch {
	case e.bound == 0:
		return worse, spread, "-"
	case spread > e.bound:
		return worse, spread, "unresolved"
	case worse > e.bound:
		return worse, spread, "regressed"
	case -worse > spread && worse < 0:
		return worse, spread, "improved"
	}
	return worse, spread, "unchanged"
}

// compareFiles prints one row per workload and metric the two files share:
// both medians with their quartiles, the change against the bound, and the
// verdict.  Per-layer metrics have no bound and no verdict.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA q1\tA median\tA q3\tn\tB q1\tB median\tB q3\tn\tworse by\tbound\tA spread\tverdict")
	rows := 0
	for _, wl := range workloads {
		for _, cat := range [][]entry{endToEndCatalogue, perLayerCatalogue} {
			for _, e := range cat {
				va, vb := a[wl.name][e.name], b[wl.name][e.name]
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				aq1, amed, aq3 := quartiles(va)
				bq1, bmed, bq3 := quartiles(vb)
				worse, spread, v := verdict(va, vb, e)
				bound := "-"
				if e.bound > 0 {
					bound = fmt.Sprintf("%.0f%%", 100*e.bound)
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g\t%.5g\t%.5g\t%d\t%.5g\t%.5g\t%.5g\t%d\t%+.1f%%\t%s\t%.1f%%\t%s\n",
					wl.name, e.name, e.unit, aq1, amed, aq3, len(va), bq1, bmed, bq3, len(vb),
					100*worse, bound, 100*spread, v)
				rows++
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if rows == 0 {
		names := make([]string, 0, len(a))
		for n := range a {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("no workload and metric in common (A has %v)", names)
	}
	return nil
}
