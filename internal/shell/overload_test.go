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

func newOverloadShell(t *testing.T, limit int, policy Admission, reg *obs.Registry) *Shell {
	t.Helper()
	spec, err := rule.ParseSpecString("site S\nprivate X @ S\n")
	if err != nil {
		t.Fatal(err)
	}
	s := New("s", spec, Options{
		Clock:      vclock.NewVirtual(vclock.Epoch),
		Metrics:    reg,
		Fires:      obs.NewRing(8),
		QueueLimit: limit,
		Admission:  policy,
	})
	s.AddSite("S", nil)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return s
}

// TestAdmitShedExactCounts holds the queue busy and pushes 10 external
// updates through a 4-deep queue: exactly 4 are admitted (in arrival
// order — A.2 ordering for admitted events) and exactly 6 are shed.
func TestAdmitShedExactCounts(t *testing.T) {
	reg := obs.NewRegistry()
	s := newOverloadShell(t, 4, AdmitShed, reg)
	s.Do(func() {
		// Queue is being drained by this callback; everything posted here
		// stays queued until it returns, so admission sees depth exactly.
		for i := 0; i < 10; i++ {
			s.Spontaneous(data.Item("X"), data.NewInt(int64(i)), data.NewInt(int64(100+i)))
		}
	})
	shed := reg.Snapshot()[`cmtk_shell_shed_total{shell="s"}`]
	if shed != 6 {
		t.Fatalf("shed = %v, want exactly 6", shed)
	}
	evs := s.Trace().Events()
	if len(evs) != 4 {
		t.Fatalf("trace has %d events, want exactly 4 (admitted only)", len(evs))
	}
	for i, e := range evs {
		want := data.NewInt(int64(100 + i))
		if !e.Desc.Val.Equal(want) {
			t.Fatalf("admitted event %d is %s, want value %s (FIFO order broken)", i, e.Desc, want)
		}
	}
	if depth := reg.Snapshot()[`cmtk_shell_queue_depth{shell="s"}`]; depth != 0 {
		t.Fatalf("queue depth after drain = %v, want 0", depth)
	}
}

// TestAdmitBlockWaitsForDrain parks an external producer at the limit and
// checks it is admitted once the drainer frees a slot: nothing shed,
// every update eventually in the trace.
func TestAdmitBlockWaitsForDrain(t *testing.T) {
	reg := obs.NewRegistry()
	s := newOverloadShell(t, 1, AdmitBlock, reg)
	release := make(chan struct{})
	started := make(chan struct{})
	go s.Do(func() {
		close(started)
		<-release
	})
	<-started
	// The drainer is parked in the callback.  Fill the one queue slot,
	// then start a second producer that must block.
	s.Spontaneous(data.Item("X"), data.NewInt(0), data.NewInt(100))
	var wg sync.WaitGroup
	wg.Add(1)
	blocked := make(chan struct{})
	go func() {
		defer wg.Done()
		close(blocked)
		s.Spontaneous(data.Item("X"), data.NewInt(0), data.NewInt(101))
	}()
	<-blocked
	time.Sleep(20 * time.Millisecond) // give the producer time to park
	if evs := s.Trace().Events(); len(evs) != 0 {
		t.Fatalf("events processed while drainer parked: %d", len(evs))
	}
	close(release)
	wg.Wait()
	// Barrier: both admitted updates fully processed.  Not Do — while the
	// first goroutine is still the drainer, Do only enqueues and returns.
	s.Drain()
	if shed := reg.Snapshot()[`cmtk_shell_shed_total{shell="s"}`]; shed != 0 {
		t.Fatalf("AdmitBlock shed %v updates, want 0", shed)
	}
	evs := s.Trace().Events()
	if len(evs) != 2 {
		t.Fatalf("trace has %d events, want exactly 2", len(evs))
	}
}

// TestAdmitBlockSelfDrainerBypassesWait: external work generated on the
// drainer goroutine itself (a translator trigger inside RHS execution)
// must be admitted, not deadlocked, even with the queue at its limit.
func TestAdmitBlockSelfDrainerBypassesWait(t *testing.T) {
	reg := obs.NewRegistry()
	s := newOverloadShell(t, 1, AdmitBlock, reg)
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Do(func() {
			for i := 0; i < 3; i++ {
				s.Spontaneous(data.Item("X"), data.NewInt(0), data.NewInt(int64(200+i)))
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("self-drainer admission deadlocked")
	}
	if evs := s.Trace().Events(); len(evs) != 3 {
		t.Fatalf("trace has %d events, want exactly 3", len(evs))
	}
	if shed := reg.Snapshot()[`cmtk_shell_shed_total{shell="s"}`]; shed != 0 {
		t.Fatalf("shed = %v, want 0", shed)
	}
}

// TestParallelHotBaseRace hammers one item base from many goroutines:
// callers race to become the post queue's drainer and hand it off, yet
// the hot base's timeline must equal the admitted value order, the copy
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

// TestAdmitAllUnbounded: the default policy admits past the limit and
// counts nothing as shed — the pre-overload-protection behavior.
func TestAdmitAllUnbounded(t *testing.T) {
	reg := obs.NewRegistry()
	s := newOverloadShell(t, 2, AdmitAll, reg)
	s.Do(func() {
		for i := 0; i < 8; i++ {
			s.Spontaneous(data.Item("X"), data.NewInt(0), data.NewInt(int64(300+i)))
		}
	})
	if shed := reg.Snapshot()[`cmtk_shell_shed_total{shell="s"}`]; shed != 0 {
		t.Fatalf("AdmitAll shed %v, want 0", shed)
	}
	if evs := s.Trace().Events(); len(evs) != 8 {
		t.Fatalf("trace has %d events, want all 8", len(evs))
	}
}
