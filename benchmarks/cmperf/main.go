// Command cmperf is the repository's benchmark.  One invocation runs one
// workload (or, with -workload all, every workload with their rounds
// interleaved), checks that the program's outputs are correct, and prints
// every metric by name with its unit; the last line of standard output is
// the result as one JSON object.
//
//	cmperf -workload mesh_tcp_sat -seed 1 -seconds 20 -trace 0   end-to-end metrics
//	cmperf -workload mesh_tcp_sat -seed 1 -seconds 20 -trace 1   per-layer metrics
//	cmperf -compare parent.jsonl change.jsonl                    the table a later change pastes
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// envRecord says where and on what a run was made; it is printed with
// every run and kept with every record -out appends.
type envRecord struct {
	Commit     string `json:"commit"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func environment() envRecord {
	env := envRecord{
		Commit: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return env
}

// result is one run of one workload.  The last line of standard output
// carries Correct, Attempted, Failed and Metrics; the rest rides along in
// the records -out appends, for -compare.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     int               `json:"trace"`
	Env       envRecord         `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Extra     map[string]metric `json:"extra,omitempty"` // printed, never gated
	Problems  []string          `json:"problems,omitempty"`
	// Segments keeps, for -out, what the estimators saw: each segment's
	// rate (1/s), median latency (ms) and stolen ticks, and each round's
	// set-up time (s) and stolen ticks.
	Segments [][3]float64 `json:"segments,omitempty"`
	Setups   [][2]float64 `json:"setups,omitempty"`
}

// contractLine is the subset of a result the last line of output holds.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) print() {
	fmt.Printf("# %s seed=%d seconds=%g trace=%d attempted=%d failed=%d correct=%v\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Attempted, r.Failed, r.Correct)
	for _, set := range []map[string]metric{r.Metrics, r.Extra} {
		names := make([]string, 0, len(set))
		for name := range set {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("%-44s %16.6g %s\n", r.Workload+"/"+name, set[name].Value, set[name].Unit)
		}
	}
	for _, p := range r.Problems {
		fmt.Printf("! %s\n", p)
	}
}

func (r *result) lastLine() string {
	buf, err := json.Marshal(contractLine{r.Correct, max(r.Attempted, 1), r.Failed, r.Metrics})
	if err != nil {
		panic(err) // numbers and strings only
	}
	return string(buf)
}

// appendRecord adds the result to a JSON-lines file.
func appendRecord(path string, r *result) error {
	buf, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(buf, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runPlain runs the workloads untraced, round by round with the rounds of
// different workloads interleaved, and returns each one's end-to-end
// result.
func runPlain(ws []workload, seed int64, seconds float64, sz sizes, outDir string) ([]*result, error) {
	gens := make([]*updateGen, len(ws))
	rounds := make([][]*round, len(ws))
	for i, w := range ws {
		gens[i] = w.gen(seed)
	}
	budget := time.Duration(seconds / float64(sz.rounds) * float64(time.Second))
	tb := &tables{}
	for n := 0; n < sz.rounds; n++ {
		for i, w := range ws {
			env := &runEnv{name: w.name, sz: sz, check: n == 0, outDir: outDir, round: n, tb: tb}
			r, err := w.run(env, gens[i], budget)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			rounds[i] = append(rounds[i], r)
		}
	}
	var out []*result
	for i, w := range ws {
		res := &result{Workload: w.name, Seed: seed, Seconds: seconds, Metrics: endToEnd(rounds[i])}
		res.Attempted, res.Failed, res.Problems = tally(rounds[i])
		res.Correct = res.Failed == 0
		res.Extra = plainExtras(rounds[i])
		for _, r := range rounds[i] {
			res.Setups = append(res.Setups, [2]float64{r.setup.Seconds(), float64(r.setupSteal)})
			for _, s := range r.segs {
				res.Segments = append(res.Segments, [3]float64{s.rate(), s.p50 / 1e6, float64(s.steal)})
			}
		}
		out = append(out, res)
	}
	return out, nil
}

// plainExtras are printed beside the end-to-end metrics so a reader sees
// the estimator at work: the plain medians, the tail, the sample counts.
func plainExtras(rounds []*round) map[string]metric {
	var rates, p50s []float64
	var lat, late []int64
	clean, inversions := 0, 0
	for _, r := range rounds {
		for _, s := range r.segs {
			rates = append(rates, s.rate())
			p50s = append(p50s, s.p50)
			if s.steal == 0 {
				clean++
			}
		}
		inversions += r.inversions
		lat = append(lat, r.lat...)
		late = append(late, r.late...)
	}
	_, rateMed, _ := quartiles(rates)
	_, p50Med, _ := quartiles(p50s)
	return map[string]metric{
		"ops_per_s.median":               {rateMed, "1/s"},
		"latency_p50_ms":                 {latencyP50(rounds), "ms"},
		"latency_p50_ms.median":          {p50Med / 1e6, "ms"},
		"latency_p99_ms":                 {nsQuantile(lat, 0.99) / 1e6, "ms"},
		"latency_samples":                {float64(len(lat)), "count"},
		"gen.late_p50_ms":                {nsQuantile(late, 0.5) / 1e6, "ms"},
		"gen.late_p99_ms":                {nsQuantile(late, 0.99) / 1e6, "ms"},
		"segments":                       {float64(len(rates)), "count"},
		"segments.undisturbed":           {float64(clean), "count"},
		"checker.cross_shell_inversions": {float64(inversions), "count"},
	}
}

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run: "+workloadNames()+", or all")
		seed         = flag.Int64("seed", 1, "seed the inputs are made from")
		seconds      = flag.Float64("seconds", 20, "how long to measure")
		traceOn      = flag.Int("trace", 0, "0: end-to-end metrics, spans off; 1: per-layer metrics, spans on")
		outFile      = flag.String("out", "", "append each result as a JSON line to this file")
		outDir       = flag.String("out-dir", "benchmarks/out", "directory for journals and spans.json")
		compare      = flag.Bool("compare", false, "compare two -out files: cmperf -compare A.jsonl B.jsonl")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: cmperf -compare A.jsonl B.jsonl")
			os.Exit(2)
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "cmperf:", err)
			os.Exit(1)
		}
		return
	}
	ws := workloads
	if *workloadName != "all" {
		w, ok := workloadByName(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "cmperf: unknown workload %q (have %s)\n", *workloadName, workloadNames())
			os.Exit(2)
		}
		ws = []workload{w}
	}
	if *seconds <= 0 || *seconds > 60 {
		fmt.Fprintln(os.Stderr, "cmperf: -seconds must be in (0, 60]")
		os.Exit(2)
	}

	// No run may outlive this, whatever went wrong inside it.
	limit := time.Duration(len(ws)) * 170 * time.Second
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "cmperf: watchdog: still running after %s\n%s", limit, counterDump())
		os.Exit(3)
	})
	defer watchdog.Stop()

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "cmperf:", err)
		os.Exit(1)
	}
	env := environment()
	envLine, _ := json.Marshal(env)
	fmt.Printf("# env %s\n", envLine)

	var results []*result
	var err error
	if *traceOn == 0 {
		results, err = runPlain(ws, *seed, *seconds, fullSizes, *outDir)
	} else {
		results, err = runTraced(ws, *seed, *seconds, fullSizes, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cmperf:", err)
		os.Exit(1)
	}
	ok := true
	for _, r := range results {
		r.Env, r.Trace = env, *traceOn
		r.print()
		if *outFile != "" {
			if err := appendRecord(*outFile, r); err != nil {
				fmt.Fprintln(os.Stderr, "cmperf:", err)
				os.Exit(1)
			}
		}
		ok = ok && r.Correct
	}
	for _, r := range results {
		fmt.Println(r.lastLine())
	}
	if !ok {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
