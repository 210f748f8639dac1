// Command cmload is the toolkit's open-loop load generator: it fires
// application updates at planned instants — constant, ramped, or spiking
// arrival rates — whether or not the mesh has absorbed the previous
// ones, so saturation and overload are actually reachable (a closed-loop
// driver slows down with the system and can never push it past the
// knee).  Every update carries a deadline; the run reports p50/p99/p999
// trigger-to-execution latency from the internal/obs histograms plus
// exact deadline-miss, shed, and buffer-drop counts.
//
// Self-contained mode (the default) assembles a live two-shell payroll
// mesh in-process — branch database, HQ replica, the copy constraint,
// reliable links over real loopback TCP sockets — and drives it:
//
//	cmload -schedule const:200:10s -deadline 2s
//	cmload -schedule spike:50:2000:30s:10s:5s -queue-limit 256 -admission shed
//	cmload -schedule ramp:10:500:20s -campaign partition:5s:3s -campaign skew:B:2s:5s:3s
//
// Fault campaigns (-campaign, repeatable) run on the internal/chaos
// scheduler against the in-process mesh while the load is offered:
//
//	partition:AT:DUR          sever both link directions for DUR
//	lossy:P:AT:DUR            drop each message with probability P
//	slow:P:BY:AT:DUR          delay each message by BY with probability P
//	skew:SHELL:OFF:AT:DUR     offset shell A's or B's clock by OFF
//
// Remote mode drives an externally deployed mesh (cmshell + risd): -risd
// points at the branch risd server to write through, and each -scrape
// names a cmshell -metrics-addr endpoint whose /metrics text supplies
// the latency histogram and overload counters:
//
//	cmload -risd 127.0.0.1:7001 -scrape http://127.0.0.1:9090 \
//	       -schedule const:100:30s
//
// -json FILE writes the report as one JSON object for dashboards.
// (cmbench -exp E15 sweeps the same campaigns deterministically on a
// virtual clock; cmload measures real time.  Neither times a change:
// that is bash benchmarks/run.sh and cmperf -compare.)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"cmtk/internal/chaos"
	"cmtk/internal/harness"
	"cmtk/internal/obs"
	"cmtk/internal/ris/server"
	"cmtk/internal/shell"
	"cmtk/internal/vclock"
	"cmtk/internal/workload"
)

type repeated []string

func (r *repeated) String() string     { return strings.Join(*r, ",") }
func (r *repeated) Set(v string) error { *r = append(*r, v); return nil }

// report is the machine-readable outcome of one load run.
type report struct {
	Mode          string   `json:"mode"` // "self-contained" or "remote"
	Schedule      string   `json:"schedule"`
	Keys          int      `json:"keys"`
	Arrivals      int      `json:"arrivals"`
	LateArrivals  int      `json:"late_arrivals"` // fired behind plan by > 1ms
	Errors        int      `json:"errors"`
	OfferedRate   float64  `json:"offered_rate_per_sec"`
	WallSeconds   float64  `json:"wall_seconds"`
	Fires         uint64   `json:"fires"` // latency observations across shells
	P50Ms         float64  `json:"p50_ms"`
	P99Ms         float64  `json:"p99_ms"`
	P999Ms        float64  `json:"p999_ms"`
	DeadlineMs    float64  `json:"deadline_ms"`
	DeadlineMiss  int      `json:"deadline_misses"` // -1 when unknown (remote)
	Lost          int      `json:"lost"`            // values never reflected (-1 remote)
	Shed          uint64   `json:"shed"`
	BufferDropped uint64   `json:"buffer_dropped"`
	Campaign      []string `json:"campaign,omitempty"`
}

func main() {
	schedSpec := flag.String("schedule", "const:50:10s", "arrival plan: const:RATE:DUR | ramp:FROM:TO:DUR | spike:BASE:PEAK:TOTAL:AT:LEN")
	keysN := flag.Int("keys", 8, "number of employee keys updates spread over")
	seed := flag.Int64("seed", 1, "key-choice seed")
	deadline := flag.Duration("deadline", 2*time.Second, "per-update propagation deadline")
	settle := flag.Duration("settle", 2*time.Second, "drain time after the last arrival before measuring")
	queueLimit := flag.Int("queue-limit", 0, "shell post-queue cap (0: unbounded)")
	admission := flag.String("admission", "block", "policy at the queue cap: all|block|shed")
	outboxLimit := flag.Int("outbox-limit", 0, "reliable outage-buffer cap per link (0: default)")
	retry := flag.Duration("retry", 200*time.Millisecond, "reliable-link base retransmit interval")
	useTCP := flag.Bool("tcp", true, "self-contained mesh over real loopback sockets (false: in-process bus)")
	busLatency := flag.Duration("bus-latency", 10*time.Millisecond, "in-process bus link latency (with -tcp=false)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics for the in-process mesh on this address (empty: off)")
	risdAddr := flag.String("risd", "", "remote mode: branch risd relstore address to write through")
	jsonOut := flag.String("json", "", "write the report to this file as JSON")
	var campaignSpecs, scrapes repeated
	flag.Var(&campaignSpecs, "campaign", "fault to schedule (repeatable): partition:AT:DUR | lossy:P:AT:DUR | slow:P:BY:AT:DUR | skew:SHELL:OFF:AT:DUR")
	flag.Var(&scrapes, "scrape", "remote mode: cmshell metrics base URL, e.g. http://127.0.0.1:9090 (repeatable)")
	flag.Parse()

	sched, err := parseSchedule(*schedSpec)
	if err != nil {
		log.Fatalf("cmload: %v", err)
	}
	keys := workload.Keys(*keysN)
	updates := sched.Updates(keys, *seed, *deadline)
	if len(updates) == 0 {
		log.Fatal("cmload: schedule yields no arrivals")
	}

	adm := shell.AdmitAll
	switch *admission {
	case "all":
	case "block":
		adm = shell.AdmitBlock
	case "shed":
		adm = shell.AdmitShed
	default:
		log.Fatalf("cmload: unknown -admission %q (want all|block|shed)", *admission)
	}

	// The generator's own counters, next to the mesh's in one registry.
	mArrivals := obs.Default.Counter("cmtk_load_arrivals_total",
		"Open-loop updates fired by cmload.").With()
	mLate := obs.Default.Counter("cmtk_load_late_arrivals_total",
		"Arrivals fired more than 1ms behind plan (the generator itself fell behind).").With()
	mErrors := obs.Default.Counter("cmtk_load_errors_total",
		"Update writes that returned an error.").With()
	mMisses := obs.Default.Counter("cmtk_load_deadline_miss_total",
		"Updates whose propagation exceeded the deadline (or never completed).").With()

	rep := report{
		Schedule: *schedSpec, Keys: *keysN, Arrivals: len(updates),
		DeadlineMs: float64(*deadline) / float64(time.Millisecond),
		OfferedRate: float64(len(updates)) / sched.Total().Seconds(),
		DeadlineMiss: -1, Lost: -1,
	}

	var write func(workload.TimedUpdate) error
	var finish func(*report)

	if *risdAddr != "" {
		if len(campaignSpecs) > 0 {
			log.Fatal("cmload: -campaign needs the in-process mesh (no fault injection into remote processes)")
		}
		rep.Mode = "remote"
		rc, err := server.DialRel(*risdAddr)
		if err != nil {
			log.Fatalf("cmload: dialing risd: %v", err)
		}
		defer rc.Close()
		var mu sync.Mutex // one wire client; serialize statements
		write = func(u workload.TimedUpdate) error {
			mu.Lock()
			defer mu.Unlock()
			res, err := rc.Exec(fmt.Sprintf("UPDATE employees SET salary = %d WHERE empid = '%s'", u.Value, u.Key))
			if err == nil && res.Affected == 0 {
				_, err = rc.Exec(fmt.Sprintf("INSERT INTO employees VALUES ('%s', %d)", u.Key, u.Value))
			}
			return err
		}
		finish = func(r *report) {
			var text strings.Builder
			for _, base := range scrapes {
				body, err := scrapeMetrics(base)
				if err != nil {
					log.Printf("cmload: scraping %s: %v", base, err)
					continue
				}
				text.WriteString(body)
				text.WriteByte('\n')
			}
			fillFromExposition(r, text.String())
		}
	} else {
		rep.Mode = "self-contained"
		if *metricsAddr != "" {
			srv, bound, err := obs.Serve(*metricsAddr, nil, nil)
			if err != nil {
				log.Fatal(err)
			}
			defer srv.Close()
			fmt.Printf("cmload: observability on http://%s\n", bound)
		}
		mesh, err := harness.NewLoadMesh(harness.LoadMeshOptions{
			TCP: *useTCP, BusLatency: *busLatency, Seed: *seed,
			RetryInterval: *retry, OutboxLimit: *outboxLimit,
			QueueLimit: *queueLimit, Admission: adm, Keys: keys,
		})
		if err != nil {
			log.Fatalf("cmload: assembling mesh: %v", err)
		}
		defer mesh.Stop()
		var runner *chaos.Runner
		if len(campaignSpecs) > 0 {
			campaign, err := parseCampaign(campaignSpecs, mesh)
			if err != nil {
				log.Fatalf("cmload: %v", err)
			}
			runner = chaos.Start(vclock.Real{}, campaign)
			defer runner.Stop()
		}
		write = func(u workload.TimedUpdate) error { return mesh.Write(u.Key, u.Value) }
		finish = func(r *report) {
			var text strings.Builder
			mesh.Reg.WriteText(&text)
			fillFromExposition(r, text.String())
			delays, lost := mesh.PropagationDelays(0)
			misses := lost
			for _, d := range delays {
				if d > *deadline {
					misses++
				}
			}
			r.DeadlineMiss, r.Lost = misses, lost
			mMisses.Add(uint64(misses))
			if runner != nil {
				for _, e := range runner.Timeline() {
					r.Campaign = append(r.Campaign, e.String())
				}
			}
		}
	}

	fmt.Printf("cmload: %s mode, %d arrivals over %s (%.1f/s offered), deadline %s\n",
		rep.Mode, len(updates), sched.Total(), rep.OfferedRate, *deadline)

	// The open loop: fire each update at its planned instant.  A write
	// runs in its own goroutine so a slow or blocked mesh never delays
	// the arrival process — that is the whole point of open-loop load.
	start := time.Now()
	var wg sync.WaitGroup
	var errMu sync.Mutex
	for _, u := range updates {
		if d := time.Until(start.Add(u.At)); d > 0 {
			time.Sleep(d)
		} else if -d > time.Millisecond {
			mLate.Inc()
			rep.LateArrivals++
		}
		mArrivals.Inc()
		wg.Add(1)
		go func(u workload.TimedUpdate) {
			defer wg.Done()
			if err := write(u); err != nil {
				mErrors.Inc()
				errMu.Lock()
				rep.Errors++
				errMu.Unlock()
			}
		}(u)
	}
	wg.Wait()
	time.Sleep(*settle)
	rep.WallSeconds = time.Since(start).Seconds()
	finish(&rep)

	fmt.Printf("cmload: %d fires, latency p50=%.3fms p99=%.3fms p999=%.3fms\n",
		rep.Fires, rep.P50Ms, rep.P99Ms, rep.P999Ms)
	if rep.DeadlineMiss >= 0 {
		fmt.Printf("cmload: deadline misses %d/%d (lost %d), shed %d, buffer drops %d\n",
			rep.DeadlineMiss, rep.Arrivals, rep.Lost, rep.Shed, rep.BufferDropped)
	} else {
		fmt.Printf("cmload: shed %d, buffer drops %d (deadline accounting needs the in-process trace)\n",
			rep.Shed, rep.BufferDropped)
	}
	for _, line := range rep.Campaign {
		fmt.Printf("cmload: campaign %s\n", line)
	}
	if rep.LateArrivals > 0 {
		fmt.Printf("cmload: generator fell behind plan on %d arrival(s)\n", rep.LateArrivals)
	}
	if *jsonOut != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*jsonOut, append(buf, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("cmload: report written to %s\n", *jsonOut)
	}
}

// fillFromExposition extracts the latency quantiles and overload counters
// from Prometheus text (the registry's own or a remote scrape).
func fillFromExposition(r *report, text string) {
	bounds, cum, count, _, ok := obs.ParseHistogram(text, "cmtk_shell_fire_latency_seconds")
	if ok && count > 0 {
		r.Fires = count
		r.P50Ms = obs.QuantileFromBuckets(bounds, cum, count, 0.50) * 1000
		r.P99Ms = obs.QuantileFromBuckets(bounds, cum, count, 0.99) * 1000
		r.P999Ms = obs.QuantileFromBuckets(bounds, cum, count, 0.999) * 1000
	}
	r.Shed = sumCounter(text, "cmtk_shell_shed_total")
	r.BufferDropped = sumCounter(text, "cmtk_transport_buffer_dropped_total")
}

// sumCounter totals a counter family across every label set in
// exposition text.
func sumCounter(text, name string) uint64 {
	var total uint64
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest != "" && rest[0] != '{' && rest[0] != ' ' {
			continue // longer metric name sharing the prefix
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			total += uint64(v)
		}
	}
	return total
}

// scrapeMetrics fetches base + "/metrics".
func scrapeMetrics(base string) (string, error) {
	resp, err := http.Get(strings.TrimRight(base, "/") + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

// parseSchedule turns a -schedule spec into a workload.Schedule.
func parseSchedule(spec string) (workload.Schedule, error) {
	parts := strings.Split(spec, ":")
	bad := func() (workload.Schedule, error) {
		return workload.Schedule{}, fmt.Errorf("bad -schedule %q (want const:RATE:DUR | ramp:FROM:TO:DUR | spike:BASE:PEAK:TOTAL:AT:LEN)", spec)
	}
	rate := func(s string) (float64, bool) {
		v, err := strconv.ParseFloat(s, 64)
		return v, err == nil && v >= 0
	}
	dur := func(s string) (time.Duration, bool) {
		d, err := time.ParseDuration(s)
		return d, err == nil && d > 0
	}
	switch parts[0] {
	case "const":
		if len(parts) != 3 {
			return bad()
		}
		r, ok1 := rate(parts[1])
		d, ok2 := dur(parts[2])
		if !ok1 || !ok2 {
			return bad()
		}
		return workload.Constant(r, d), nil
	case "ramp":
		if len(parts) != 4 {
			return bad()
		}
		from, ok1 := rate(parts[1])
		to, ok2 := rate(parts[2])
		d, ok3 := dur(parts[3])
		if !ok1 || !ok2 || !ok3 {
			return bad()
		}
		return workload.Ramp(from, to, d), nil
	case "spike":
		if len(parts) != 6 {
			return bad()
		}
		base, ok1 := rate(parts[1])
		peak, ok2 := rate(parts[2])
		total, ok3 := dur(parts[3])
		at, err := time.ParseDuration(parts[4])
		ln, ok5 := dur(parts[5])
		if !ok1 || !ok2 || !ok3 || err != nil || at < 0 || !ok5 {
			return bad()
		}
		return workload.Spike(base, peak, total, at, ln), nil
	}
	return bad()
}

// parseCampaign binds -campaign specs to the mesh's injection points.
func parseCampaign(specs []string, mesh *harness.LoadMesh) (chaos.Campaign, error) {
	c := chaos.Campaign{Name: "cmload"}
	for _, spec := range specs {
		parts := strings.Split(spec, ":")
		bad := func() (chaos.Campaign, error) {
			return chaos.Campaign{}, fmt.Errorf("bad -campaign %q", spec)
		}
		durs := func(ss ...string) ([]time.Duration, bool) {
			out := make([]time.Duration, len(ss))
			for i, s := range ss {
				d, err := time.ParseDuration(s)
				if err != nil || d < 0 {
					return nil, false
				}
				out[i] = d
			}
			return out, true
		}
		switch parts[0] {
		case "partition":
			if len(parts) != 3 {
				return bad()
			}
			ds, ok := durs(parts[1], parts[2])
			if !ok {
				return bad()
			}
			c.Faults = append(c.Faults, chaos.Partition(mesh.Flaky, "shell-A", "shell-B", ds[0], ds[1]))
		case "lossy":
			if len(parts) != 4 {
				return bad()
			}
			p, err := strconv.ParseFloat(parts[1], 64)
			ds, ok := durs(parts[2], parts[3])
			if err != nil || p < 0 || p > 1 || !ok {
				return bad()
			}
			c.Faults = append(c.Faults, chaos.Lossy(mesh.Flaky, p, ds[0], ds[1]))
		case "slow":
			if len(parts) != 5 {
				return bad()
			}
			p, err := strconv.ParseFloat(parts[1], 64)
			ds, ok := durs(parts[2], parts[3], parts[4])
			if err != nil || p < 0 || p > 1 || !ok {
				return bad()
			}
			c.Faults = append(c.Faults, chaos.Slow(mesh.Flaky, p, ds[0], ds[1], ds[2]))
		case "skew":
			if len(parts) != 5 {
				return bad()
			}
			clk, ok := mesh.Clocks["shell-"+parts[1]]
			if !ok {
				return bad()
			}
			off, err := time.ParseDuration(parts[2])
			ds, ok2 := durs(parts[3], parts[4])
			if err != nil || !ok2 {
				return bad()
			}
			c.Faults = append(c.Faults, chaos.Skew(clk, off, ds[0], ds[1]))
		default:
			return bad()
		}
	}
	return c, nil
}
