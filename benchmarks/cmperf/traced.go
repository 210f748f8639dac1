package main

// The traced run: the workload runs once with spans on and once with them
// off (the difference is the tracing overhead), a mesh round supplies the
// tiles of an update's blocking path, and the isolated drives price each
// layer on its own.

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"cmtk/internal/obs"
)

// depthSampler polls the shells' queue-depth gauge while a traced round
// runs; a gauge's peak cannot be read back from two snapshots.
type depthSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	max  float64
}

func startDepthSampler() *depthSampler {
	s := &depthSampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				for k, v := range obs.Default.Snapshot() {
					if strings.HasPrefix(k, "cmtk_shell_queue_depth") && v > s.max {
						s.max = v
					}
				}
			}
		}
	}()
	return s
}

// peak stops the sampler and returns the deepest queue it saw.
func (s *depthSampler) peak() float64 {
	close(s.stop)
	s.wg.Wait()
	return s.max
}

// rateOf is a round's throughput by the end-to-end estimator.
func rateOf(r *round) float64 { return endToEnd([]*round{r})["ops_per_s"].Value }

func medianNS(ns []int64) float64 { return nsQuantile(ns, 0.5) }

// runTraced produces the per-layer result of each workload.
func runTraced(ws []workload, seed int64, seconds float64, sz sizes, outDir string) ([]*result, error) {
	var out []*result
	var spans []spanRecord
	for _, w := range ws {
		res, recs, err := tracedRun(w, seed, seconds, sz, outDir)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		out = append(out, res)
		spans = append(spans, recs...)
	}
	if err := writeSpans(outDir, spans); err != nil {
		return nil, err
	}
	return out, nil
}

func tracedRun(w workload, seed int64, seconds float64, sz sizes, outDir string) (*result, []spanRecord, error) {
	gen := w.gen(seed)
	share := func(f float64) time.Duration { return time.Duration(seconds * f * float64(time.Second)) }
	refs := []int64{int64(hostRef())}
	tb := &tables{}

	sampler := startDepthSampler()
	traced, err := w.run(&runEnv{name: w.name, sz: sz, traced: true, check: true, outDir: outDir, tb: tb}, gen, share(0.4))
	depth := sampler.peak()
	if err != nil {
		return nil, nil, err
	}
	refs = append(refs, int64(hostRef()))
	plain, err := w.run(&runEnv{name: w.name, sz: sz, outDir: outDir, round: 1, tb: tb}, gen, share(0.25))
	if err != nil {
		return nil, nil, err
	}
	refs = append(refs, int64(hostRef()))

	// A workload without a mesh still records what every mesh layer costs
	// beside it: a short paced round of the journaled mesh supplies the
	// tiles and the firings the drives replay.
	path := traced
	if traced.spans == nil {
		probe := newUpdateGen(seed, "probe", meshKeys)
		budget := time.Duration(sz.probeSeconds * float64(time.Second))
		if path, err = meshPacedRound(&runEnv{name: "probe", sz: sz, traced: true, outDir: outDir, round: 2, tb: tb}, probe, budget); err != nil {
			return nil, nil, err
		}
	}
	layers, problems, err := driveLayers(seed, path.captured, outDir, sz.driveScale)
	if err != nil {
		return nil, nil, err
	}
	refs = append(refs, int64(hostRef()))

	m := layers
	ops := float64(max(traced.ops, 1))
	c := traced.counters

	// The tiles of the blocking path, as medians, and what they leave over.
	tiled := 0.0
	for _, tl := range tiles {
		med := medianNS(path.spans[tl.name])
		tiled += med
		if tl.name != "gen.late_us" {
			m[tl.name] = metric{med / 1e3, "us"}
		}
	}
	m["transport.tcp_send_us"] = metric{medianNS(path.spans["transport.tcp_send_us"]) / 1e3, "us"}
	m["op.unattributed_us"] = metric{(medianNS(path.spans["op"]) - tiled) / 1e3, "us"}
	m["gen.late_p99_ms"] = metric{nsQuantile(path.late, 0.99) / 1e6, "ms"}
	m["core.deploy_ms"] = metric{float64(path.deploy) / 1e6, "ms"}

	// The program's own counters over the workload's traced round.
	m["translator.ops_per_op"] = metric{c.Sum("cmtk_translator_ops_total") / ops, "count"}
	m["translator.failures"] = metric{c.Sum("cmtk_translator_failures_total"), "count"}
	m["shell.events_per_op"] = metric{c.Sum("cmtk_shell_events_total") / ops, "count"}
	matches := c.Sum("cmtk_shell_rule_matches_total")
	m["shell.matches_per_op"] = metric{matches / ops, "count"}
	m["shell.fires_per_match"] = metric{c.Sum("cmtk_shell_fires_total") / max(matches, 1), "count"}
	m["shell.queue_depth_max"] = metric{depth, "count"}
	m["shell.shed"] = metric{c.Sum("cmtk_shell_shed_total"), "count"}
	m["trace.events_per_op"] = metric{float64(traced.events) / ops, "count"}
	m["transport.msgs_per_op"] = metric{c.Sum("cmtk_transport_sends_total") / ops, "count"}
	m["transport.batch_size_mean"] = metric{c.Sum("cmtk_transport_batch_size_sum") / max(c.Sum("cmtk_transport_batch_size_count"), 1), "count"}
	m["transport.retries"] = metric{c.Sum("cmtk_transport_retries_total"), "count"}
	m["transport.dups_dropped"] = metric{c.Sum("cmtk_transport_dups_dropped_total"), "count"}
	m["durable.wal_appends_per_op"] = metric{c.Sum("cmtk_wal_appends_total") / ops, "count"}
	m["durable.wal_bytes_per_op"] = metric{c.Sum("cmtk_wal_appended_bytes_total") / ops, "B"}
	measured := 0.0
	for _, s := range traced.segs {
		measured += s.dur.Seconds()
	}
	m["durable.fsyncs_per_s"] = metric{c.Sum("cmtk_wal_fsyncs_total") / max(measured, 1e-9), "1/s"}

	// The harness's own view of the traced round.
	m["op.latency_p50_ms"] = metric{latencyP50([]*round{traced}), "ms"}
	m["op.latency_p99_ms"] = metric{nsQuantile(traced.lat, 0.99) / 1e6, "ms"}
	m["proc.cpu_us_per_op"] = metric{float64(traced.cpu) / 1e3 / ops, "us"}
	m["proc.heap_retained_bytes_per_op"] = metric{float64(traced.heapRetained) / ops, "B"}
	m["host.ref_ms"] = metric{medianNS(refs) / 1e6, "ms"}
	m["spans.overhead_share"] = metric{1 - rateOf(traced)/rateOf(plain), "ratio"}

	res := &result{Workload: w.name, Seed: seed, Seconds: seconds, Metrics: m}
	rounds := []*round{traced, plain}
	if path != traced {
		rounds = append(rounds, path)
	}
	res.Attempted, res.Failed, res.Problems = tally(rounds)
	res.Failed += len(problems)
	res.Problems = append(res.Problems, problems...)
	res.Correct = res.Failed == 0
	res.Extra = map[string]metric{
		"gen.late_us":        {medianNS(path.spans["gen.late_us"]) / 1e3, "us"},
		"op.latency_p50_us":  {medianNS(path.spans["op"]) / 1e3, "us"},
		"op.traced_updates":  {float64(len(path.spans["op"])), "count"},
		"ops_per_s.traced":   {rateOf(traced), "1/s"},
		"ops_per_s.untraced": {rateOf(plain), "1/s"},
	}
	return res, path.spanRecords, nil
}
