package main

import (
	"bytes"
	"math"
	"path/filepath"
	"regexp"
	"testing"
)

// TestQuartilesMatchPython: statistics.quantiles(range(1, 11), n=4) is
// [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	for _, c := range []struct{ got, want float64 }{{q1, 2.75}, {med, 5.5}, {q3, 8.25}} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
		}
	}
}

func writeRuns(t *testing.T, path, workload, name, unit string, values []float64) {
	t.Helper()
	for _, v := range values {
		r := &result{Workload: workload, Correct: true, Attempted: 1, Metrics: map[string]metric{name: {v, unit}}}
		if err := appendRecord(path, r); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCompareVerdicts: one row per workload and metric, each of the four
// verdicts where it belongs.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	// ops_per_s is higher-is-better with a 25% bound, setup_s lower-is-better.
	writeRuns(t, a, "engine_rules", "ops_per_s", "1/s", steady)
	writeRuns(t, b, "engine_rules", "ops_per_s", "1/s", scale(1.30)) // improved
	writeRuns(t, a, "mesh_tcp_sat", "ops_per_s", "1/s", steady)
	writeRuns(t, b, "mesh_tcp_sat", "ops_per_s", "1/s", scale(0.70)) // regressed
	writeRuns(t, a, "verify_trace", "ops_per_s", "1/s", steady)
	writeRuns(t, b, "verify_trace", "ops_per_s", "1/s", scale(1.005)) // unchanged
	writeRuns(t, a, "mesh_durable_paced", "setup_s", "s", []float64{1, 2, 3, 1, 2, 3, 1, 2, 3, 2})
	writeRuns(t, b, "mesh_durable_paced", "setup_s", "s", []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}) // unresolved
	writeRuns(t, a, "mesh_tcp_sat", "transport.flight_us", "us", steady)
	writeRuns(t, b, "mesh_tcp_sat", "transport.flight_us", "us", scale(0.5)) // per-layer: no verdict

	var out bytes.Buffer
	if err := compareFiles(&out, a, b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`engine_rules\s+ops_per_s\s.*\simproved`,
		`mesh_tcp_sat\s+ops_per_s\s.*\sregressed`,
		`verify_trace\s+ops_per_s\s.*\sunchanged`,
		`mesh_durable_paced\s+setup_s\s.*\sunresolved`,
		`mesh_tcp_sat\s+transport\.flight_us\s.*-50\.0%.*\s-\n`,
	} {
		if !regexp.MustCompile(want).Match(out.Bytes()) {
			t.Errorf("no row matching %q in\n%s", want, out.String())
		}
	}
	if rows := bytes.Count(out.Bytes(), []byte("\n")); rows != 6 {
		t.Errorf("%d lines, want a header and 5 rows:\n%s", rows, out.String())
	}
	if err := compareFiles(&out, a, filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Error("comparing against a missing file succeeded")
	}
}
