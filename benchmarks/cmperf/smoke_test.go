package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cmtk/internal/obs"
)

func checkEmitted(t *testing.T, res *result, want []entry) {
	t.Helper()
	if res.Failed != 0 || !res.Correct {
		t.Errorf("%s: %d of %d failed: %v", res.Workload, res.Failed, res.Attempted, res.Problems)
	}
	if res.Attempted < 1 {
		t.Errorf("%s: attempted %d", res.Workload, res.Attempted)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics emitted, want %d", res.Workload, len(res.Metrics), len(want))
	}
	for _, e := range want {
		m, ok := res.Metrics[e.name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", res.Workload, e.name)
			continue
		}
		if m.Unit != e.unit {
			t.Errorf("%s: metric %s has unit %q, want %q", res.Workload, e.name, m.Unit, e.unit)
		}
	}
	// The line the driver reads holds exactly the four keys.
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(res.lastLine()), &line); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := line[key]; !ok {
			t.Errorf("%s: last line lacks %q", res.Workload, key)
		}
	}
	if len(line) != 4 {
		t.Errorf("%s: last line has %d keys, want 4", res.Workload, len(line))
	}
}

// TestSmoke runs all four workloads at the short sizes, untraced and then
// traced, and checks that every catalogued metric comes out once with its
// unit, that no operation failed (every update seen at the replica with
// its own value, replicas converged, no checker violation or failed
// guarantee on the sample), and that spans were written.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	plain, err := runPlain(workloads, 1, 0.25, shortSizes, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(workloads) {
		t.Fatalf("%d results, want %d", len(plain), len(workloads))
	}
	for _, res := range plain {
		checkEmitted(t, res, endToEndCatalogue)
		for _, e := range endToEndCatalogue {
			if res.Metrics[e.name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", res.Workload, e.name, res.Metrics[e.name].Value)
			}
		}
	}

	traced, err := runTraced(workloads, 1, 0.25, shortSizes, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range traced {
		checkEmitted(t, res, perLayerCatalogue)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "spans.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []spanRecord
	if err := json.Unmarshal(raw, &spans); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range spans {
		if s.EndNS < s.StartNS {
			t.Fatalf("span %+v ends before it starts", s)
		}
		names[s.Name] = true
	}
	for _, tl := range tiles {
		if !names[tl.name] {
			t.Errorf("spans.json has no %s span", tl.name)
		}
	}

	// The benchmark adds no metric family of its own: whatever the default
	// registry now exposes is already in the catalogue the root
	// docs_test.go holds the program to.
	doc, err := os.ReadFile(filepath.Join("..", "..", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	for series := range obs.Default.Snapshot() {
		family, _, _ := strings.Cut(series, "{")
		family = strings.TrimSuffix(strings.TrimSuffix(family, "_count"), "_sum")
		if !strings.Contains(string(doc), family) {
			t.Errorf("metric family %s is not catalogued in OBSERVABILITY.md", family)
		}
	}
}

// TestOneWorkloadAlone: -workload NAME runs that workload's rounds back to
// back and nothing else.
func TestOneWorkloadAlone(t *testing.T) {
	w, ok := workloadByName("verify_trace")
	if !ok {
		t.Fatal("no verify_trace workload")
	}
	sz := shortSizes
	sz.rounds = 2
	res, err := runPlain([]workload{w}, 7, 0.2, sz, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Workload != "verify_trace" {
		t.Fatalf("results %+v", res)
	}
	checkEmitted(t, res[0], endToEndCatalogue)
	if got := res[0].Extra["segments"].Value; got < 2 {
		t.Errorf("%v segments from 2 rounds", got)
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the names the
// program reports from drifting apart.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
	if len(doc.EndToEnd) != len(endToEndCatalogue) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(doc.EndToEnd), len(endToEndCatalogue))
	}
	for i, e := range endToEndCatalogue {
		if got := doc.EndToEnd[i]; got.Name != e.name || got.Unit != e.unit || got.Better != e.better || got.Bound != e.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, got, e)
		}
		if e.bound <= 0 || e.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.name, e.bound)
		}
	}
	if len(doc.PerLayer) != len(perLayerCatalogue) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(doc.PerLayer), len(perLayerCatalogue))
	}
	for i, e := range perLayerCatalogue {
		if got := doc.PerLayer[i]; got.Name != e.name || got.Unit != e.unit || got.Better != e.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, got, e)
		}
	}
}
