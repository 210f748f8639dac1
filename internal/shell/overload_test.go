package shell

import (
	"sync"
	"testing"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/obs"
	"cmtk/internal/rule"
	"cmtk/internal/trace"
	"cmtk/internal/vclock"
)

// TestExternalWorkFromDrainerRunsAfterIt: external work posted on the
// drainer goroutine itself (a translator trigger firing inside RHS
// execution) is queued behind the running unit, never run reentrantly and
// never deadlocked, and runs in arrival order once the unit returns.
func TestExternalWorkFromDrainerRunsAfterIt(t *testing.T) {
	spec, err := rule.ParseSpecString("site S\nprivate X @ S\n")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s := New("s", spec, Options{
		Clock:   vclock.NewVirtual(vclock.Epoch),
		Metrics: reg,
	})
	s.AddSite("S", nil)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)

	const n = 8
	ranDuring := -1
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.do(func() {
			for i := 0; i < n; i++ {
				s.Spontaneous(data.Item("X"), data.NewInt(int64(i)), data.NewInt(int64(100+i)))
			}
			ranDuring = len(s.Trace().Events())
		})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("work posted by the drainer deadlocked")
	}
	s.Drain()
	if ranDuring != 0 {
		t.Fatalf("%d events ran inside the posting callback, want 0", ranDuring)
	}
	evs := s.Trace().Events()
	if len(evs) != n {
		t.Fatalf("trace has %d events, want exactly %d", len(evs), n)
	}
	for i, e := range evs {
		if want := data.NewInt(int64(100 + i)); !e.Desc.Val.Equal(want) {
			t.Fatalf("event %d is %s, want value %s (arrival order broken)", i, e.Desc, want)
		}
	}
	if depth := reg.Snapshot()[`cmtk_shell_queue_depth{shell="s"}`]; depth != 0 {
		t.Fatalf("queue depth after drain = %v, want 0", depth)
	}
}

// TestParallelHotBaseRace hammers one item base from many goroutines:
// callers race to become the post queue's drainer and hand it off, yet
// the hot base's timeline must equal the posted value order, the copy
// and chain cascade must follow every write, and the trace must stay
// checker-clean.  Run with -race this is the engine's memory-safety
// stress.
func TestParallelHotBaseRace(t *testing.T) {
	sp, err := rule.ParseSpecString(`site S
private G0 @ S
private X0 @ S
private Y0 @ S
private Z0 @ S
private Q0 @ S
rule c0: Ws(X0, b) ->5s W(Y0, b)
rule k0: W(Y0, b) ->5s W(Z0, b)
rule g0: Ws(X0, b) && G0 = 0 ->5s W(Q0, b)
`)
	if err != nil {
		t.Fatal(err)
	}
	initial := data.NewInterpretation()
	initial.Set(data.Item("G0"), data.NewInt(0))
	sh := New("s", sp, Options{Clock: vclock.NewVirtual(vclock.Epoch),
		Trace: trace.New(initial)})
	sh.AddSite("S", nil)
	sh.WriteAux(data.Item("G0"), data.NewInt(0))
	if err := sh.Start(); err != nil {
		t.Fatal(err)
	}
	const gs, per = 8, 100
	var next int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				mu.Lock()
				next++
				v := next
				mu.Unlock()
				sh.Spontaneous(data.Item("X0"), data.NewInt(v-1), data.NewInt(v))
			}
		}()
	}
	wg.Wait()
	sh.Drain()
	sh.Stop()

	tr := sh.Trace()
	x0, y0 := tr.Timeline(data.Item("X0")), tr.Timeline(data.Item("Y0"))
	if len(x0) != gs*per+1 {
		t.Fatalf("X0 timeline has %d samples, want %d", len(x0), gs*per+1)
	}
	if len(y0) != len(x0) {
		t.Fatalf("Y0 copied %d values for %d X0 writes", len(y0)-1, len(x0)-1)
	}
	// Y0's value order must equal X0's committed order.
	for i := range x0 {
		if !x0[i].V.Equal(y0[i].V) {
			t.Fatalf("Y0[%d] = %s, want X0's %s", i, y0[i].V, x0[i].V)
		}
	}
	checker := trace.NewChecker(append(sp.Rules, sh.ImplicitRules()...))
	if vs := checker.Check(tr); len(vs) != 0 {
		t.Fatalf("%d violations, first: %s", len(vs), vs[0])
	}
}
