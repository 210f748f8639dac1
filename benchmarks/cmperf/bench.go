package main

// What every workload has in common: how a round is sized, bracketed and
// reported, and how the rounds of a run become the run's metrics.

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cmtk/internal/obs"
	"cmtk/internal/transport"
)

// sizes fixes how much work a round does.  The full sizes are what the
// committed bounds were measured with; the short ones let the smoke test
// run all four workloads in a few seconds.
type sizes struct {
	rounds       int           // rounds per run, each on a rebuilt deployment
	meshWarm     int           // warm-up updates of a mesh round (fixed, so set-up time is comparable)
	meshSeg      time.Duration // length of one mesh segment
	pacedRate    float64       // updates per second offered by the open loop
	window       int           // outstanding updates kept by the closed loop
	engineWarm   int           // warm-up updates of an engine round
	engineSeg    int           // updates per engine segment, each on a fresh shell and trace
	verifyOps    int           // updates behind the verify_trace trace
	sampleOps    int           // updates behind the trace the checker samples
	tableCap     int           // most updates one mesh round can follow
	probeSeconds float64       // length of the traced mesh probe on workloads without a mesh
	driveScale   int           // divisor of the isolated drives' repetition counts
}

var fullSizes = sizes{
	rounds: 8, meshWarm: 6000, meshSeg: 125 * time.Millisecond, pacedRate: 2000, window: 32,
	engineWarm: 60_000, engineSeg: 50_000, verifyOps: verifyUpdates, sampleOps: 500,
	tableCap: 1 << 19, probeSeconds: 1.5, driveScale: 1,
}

var shortSizes = sizes{
	rounds: 1, meshWarm: 300, meshSeg: 50 * time.Millisecond, pacedRate: 2000, window: 32,
	engineWarm: 2000, engineSeg: 4000, verifyOps: 150, sampleOps: 100,
	tableCap: 1 << 15, probeSeconds: 0.2, driveScale: 50,
}

// runEnv is what a round is given.
type runEnv struct {
	name   string // the workload, for span names
	sz     sizes
	traced bool   // spans on: every seam interposed, every op timed
	check  bool   // run the checker on a sample before measuring
	outDir string // where state directories and spans.json go
	round  int
	tb     *tables // the run's op and span tables, for mesh rounds
}

// segment is one measured stretch of a round.
type segment struct {
	ops   int           // updates completed in it
	dur   time.Duration // how long it lasted
	p50   float64       // median latency of its updates, ns
	steal int64         // clock ticks the hypervisor kept the CPUs away during it
}

func (s segment) rate() float64 { return float64(s.ops) / s.dur.Seconds() }

// round is what one round of a workload yields.
type round struct {
	setup      time.Duration
	setupSteal int64         // clock ticks stolen during the set-up
	deploy     time.Duration // Deploy+Start, where the round deploys
	segs       []segment
	lat        []int64 // latency of every timed update, ns
	late       []int64 // generator lateness of every update, ns
	ops        int     // updates completed in the measured phase
	attempted  int
	failed     int
	problems   []string
	// inversions counts timestamp inversions between events of different
	// shells in the checked sample; see checkSample.
	inversions int

	mallocs, allocBytes uint64        // heap allocations over the measured phase
	cpu                 time.Duration // user+system CPU over the measured phase
	heapRetained        int64         // live-heap growth over the measured phase, traced rounds only
	counters            obs.Snapshot  // movement of the program's own counters over the measured phase
	events              int           // events the trace recorded over the measured phase

	// traced mesh rounds only
	spans       map[string][]int64  // duration samples of every tile, ns
	captured    []transport.Message // firings as the raw endpoint sent them
	spanRecords []spanRecord
}

func (r *round) problem(format string, args ...any) {
	r.failed++
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// meter brackets a measured phase: heap allocation, CPU time and the
// program's counters are read just outside it.
type meter struct {
	mem  runtime.MemStats
	cpu  time.Duration
	snap obs.Snapshot
	heap uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// begin collects garbage, so every measured phase starts from a heap that
// holds only live data, and takes the opening readings.
func (m *meter) begin() {
	runtime.GC()
	m.snap = obs.Default.Snapshot()
	runtime.ReadMemStats(&m.mem)
	m.heap = m.mem.HeapAlloc
	m.cpu = cpuTime()
}

// end adds the phase's movement to r.  retained asks for the live-heap
// growth too, which costs a collection.
func (m *meter) end(r *round, retained bool) {
	cpu := cpuTime()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	r.mallocs += mem.Mallocs - m.mem.Mallocs
	r.allocBytes += mem.TotalAlloc - m.mem.TotalAlloc
	r.cpu += cpu - m.cpu
	delta := obs.Default.Snapshot().Delta(m.snap)
	if r.counters == nil {
		r.counters = obs.Snapshot{}
	}
	for k, v := range delta {
		r.counters[k] += v
	}
	if retained {
		runtime.GC()
		runtime.ReadMemStats(&mem)
		r.heapRetained += int64(mem.HeapAlloc) - int64(m.heap)
	}
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(env *runEnv, gen *updateGen, budget time.Duration) (*round, error)
	keys int // how many keys its update stream chooses among
}

// gen is the workload's update stream under a seed.
func (w workload) gen(seed int64) *updateGen {
	g := newUpdateGen(seed, w.name, w.keys)
	if w.name == "verify_trace" {
		g.cycling()
	}
	return g
}

var workloads = []workload{
	{
		name: "engine_rules", keys: engineRules, run: engineRound,
		why: "one serial shell on a virtual clock, 64 rule pairs, no translator, network or journal: rule, event, shell dispatch and trace writes do all the work",
	},
	{
		name: "mesh_tcp_sat", keys: meshKeys, run: meshSatRound,
		why: "closed loop, 32 outstanding, over loopback TCP with reliable links: capacity of the whole source-to-replica path with send-side batching engaged",
	},
	{
		name: "mesh_durable_paced", keys: meshKeys, run: meshPacedRound,
		why: "open loop at 2000 updates/s with journaled shells and links: the propagation delay a user sees at a sustainable rate, unbatched, the only workload with the journal on the path",
	},
	{
		name: "verify_trace", keys: verifyKeys, run: verifyRound,
		why: "repeated checker and guarantee passes over one recorded 1200-event trace: the read side of the trace, which no other workload touches",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// stealTicks reads how long the hypervisor has kept this machine's CPUs
// away from it, in clock ticks summed over the CPUs (the steal column of
// /proc/stat).  It is 0 where the column is missing.
func stealTicks() int64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseInt(f[8], 10, 64)
	return n
}

// undisturbed picks the values to estimate from.  On a shared host the
// hypervisor takes the CPUs away for tens of milliseconds at a time,
// sometimes for half of every second over minutes; a stretch it did that
// to is no measurement of the program.  So the stretches with no stolen
// tick are used alone when they are at least an eighth of all (and at
// least four); otherwise all are.
func undisturbed(values []float64, steal []int64) []float64 {
	var clean []float64
	for i, v := range values {
		if steal[i] == 0 {
			clean = append(clean, v)
		}
	}
	if len(clean) >= 4 && 8*len(clean) >= len(values) {
		return clean
	}
	return values
}

// endToEnd turns the rounds of a run into the end-to-end metrics.
//
// Interference only ever slows a segment down, so among the undisturbed
// segments throughput is the upper quartile of the segment rates and
// latency (latencyP50) the lower quartile of the segment medians: both
// estimate the system left alone and repeat far better than a mean.  Set-up
// time is the median over the undisturbed set-ups of the rounds.  The
// allocation counts are totals over every measured phase.
func endToEnd(rounds []*round) map[string]metric {
	var rates, setups []float64
	var segSteal, setupSteal []int64
	var mallocs, bytes uint64
	ops := 0
	for _, r := range rounds {
		setups = append(setups, r.setup.Seconds())
		setupSteal = append(setupSteal, r.setupSteal)
		for _, s := range r.segs {
			rates = append(rates, s.rate())
			segSteal = append(segSteal, s.steal)
		}
		mallocs += r.mallocs
		bytes += r.allocBytes
		ops += r.ops
	}
	rates = sortedCopy(undisturbed(rates, segSteal))
	setups = sortedCopy(undisturbed(setups, setupSteal))
	n := float64(max(ops, 1))
	return map[string]metric{
		"setup_s":            {quantile(setups, 0.5), "s"},
		"ops_per_s":          {quantile(rates, 0.75), "1/s"},
		"allocs_per_op":      {float64(mallocs) / n, "count"},
		"alloc_bytes_per_op": {float64(bytes) / n, "B"},
	}
}

// latencyP50 is the median latency of the rounds' ops, in milliseconds, by
// the estimator endToEnd describes.
func latencyP50(rounds []*round) float64 {
	var p50s []float64
	var steal []int64
	for _, r := range rounds {
		for _, s := range r.segs {
			p50s = append(p50s, s.p50)
			steal = append(steal, s.steal)
		}
	}
	return quantile(sortedCopy(undisturbed(p50s, steal)), 0.25) / 1e6
}

// tally sums attempts and failures over rounds and collects what went wrong.
func tally(rounds []*round) (attempted, failed int, problems []string) {
	for _, r := range rounds {
		attempted += r.attempted
		failed += r.failed
		problems = append(problems, r.problems...)
	}
	return attempted, failed, problems
}
