package main

// engine_rules: one serial shell on a virtual clock with no translator,
// network or journal.  An update is one Shell.Spontaneous call and the
// whole local cascade it sets off.

import (
	"strconv"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/rule"
	"cmtk/internal/shell"
	"cmtk/internal/trace"
	"cmtk/internal/vclock"
)

// engineSampleEvery is how often an untraced segment times a single
// update: one in eight keeps the two clock reads out of most updates.
const engineSampleEvery = 8

// engine is one shell under the engine_rules specification.
type engine struct {
	sh   *shell.Shell
	tr   *trace.Trace
	clk  *vclock.Virtual
	spec *rule.Spec
	x    []data.ItemName // the rule-bearing items updates choose among
	last []data.Value    // their current values
}

// newEngine parses the specification and starts a shell on a fresh trace
// whose every item starts at 0.
func newEngine(specText string) (*engine, error) {
	sp, err := rule.ParseSpecString(specText)
	if err != nil {
		return nil, err
	}
	zero := data.NewInt(0)
	initial := data.NewInterpretation()
	var items []data.ItemName
	for i := 0; i < engineItems; i++ {
		for _, base := range []string{"X", "Y", "Z"} {
			item := data.Item(base + strconv.Itoa(i))
			items = append(items, item)
			initial.Set(item, zero)
		}
	}
	e := &engine{clk: vclock.NewVirtual(vclock.Epoch), spec: sp, tr: trace.New(initial)}
	e.sh = shell.New("engine", sp, shell.Options{Clock: e.clk, Trace: e.tr})
	e.sh.AddSite("S", nil)
	for _, item := range items {
		e.sh.WriteAux(item, zero)
	}
	if err := e.sh.Start(); err != nil {
		return nil, err
	}
	for i := 0; i < engineRules; i++ {
		e.x = append(e.x, data.Item("X"+strconv.Itoa(i)))
		e.last = append(e.last, zero)
	}
	return e, nil
}

// drive applies n updates of the stream.  It times one update in every
// (none when every is 0) and appends the times to lat.
func (e *engine) drive(gen *updateGen, n, every int, lat []int64) []int64 {
	for i := 0; i < n; i++ {
		k, v := gen.pick()
		val := data.NewInt(v)
		if every > 0 && i%every == 0 {
			t0 := nowNS()
			e.sh.Spontaneous(e.x[k], e.last[k], val)
			lat = append(lat, nowNS()-t0)
		} else {
			e.sh.Spontaneous(e.x[k], e.last[k], val)
		}
		e.last[k] = val
		e.clk.Advance(time.Millisecond)
	}
	return lat
}

// verify checks what n updates must have left behind: three recorded
// events each, and every Yi and Zi equal to the last value of Xi.
func (e *engine) verify(n int, r *round) {
	if got := e.tr.Len(); got != 3*n {
		r.problem("engine_rules: %d updates recorded %d events, want %d", n, got, 3*n)
	}
	final := e.tr.Final()
	for i, x := range e.x {
		want := e.last[i]
		for _, base := range []string{"Y", "Z"} {
			if got := final.Get(data.Item(base + strconv.Itoa(i))); !got.Equal(want) {
				r.problem("engine_rules: %s%d = %s, want %s = %s", base, i, got, x, want)
			}
		}
	}
}

func engineRound(env *runEnv, gen *updateGen, budget time.Duration) (*round, error) {
	r := &round{}
	began, steal := time.Now(), stealTicks()
	specText := engineSpec()
	warm, err := newEngine(specText)
	if err != nil {
		return nil, err
	}
	warm.drive(gen, env.sz.engineWarm, 0, nil)
	warm.sh.Stop()
	r.setup, r.setupSteal = time.Since(began), stealTicks()-steal

	if env.check {
		sample, err := newEngine(specText)
		if err != nil {
			return nil, err
		}
		sample.drive(gen, env.sz.sampleOps, 0, nil)
		sample.verify(env.sz.sampleOps, r)
		rules := append(append([]rule.Rule{}, sample.spec.Rules...), sample.sh.ImplicitRules()...)
		for _, v := range trace.NewChecker(rules).Check(sample.tr) {
			r.problem("engine_rules: checker: %s", v)
		}
		sample.sh.Stop()
	}

	every := engineSampleEvery
	if env.traced {
		every = 1
	}
	seg := env.sz.engineSeg
	lat := make([]int64, 0, seg/every+1)
	var m meter
	deadline := time.Now().Add(budget)
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		// A segment is the whole life of a fresh shell and trace, so every
		// segment holds the same collector work: the heap grows the same way
		// from the same start.  (Slices of one long life do not: whether a
		// collection lands in a slice moves its time by half.)
		e, err := newEngine(specText)
		if err != nil {
			return nil, err
		}
		m.begin()
		t0, steal := time.Now(), stealTicks()
		lat = e.drive(gen, seg, every, lat[:0])
		dur, stolen := time.Since(t0), stealTicks()-steal
		m.end(r, env.traced)
		e.verify(seg, r)
		e.sh.Stop()
		r.lat = append(r.lat, lat...)
		r.segs = append(r.segs, segment{ops: seg, dur: dur, p50: nsQuantile(lat, 0.5), steal: stolen})
		r.ops += seg
		r.events += e.tr.Len()
		r.attempted += seg
	}
	return r, nil
}
