package shell

import (
	"sync"
	"testing"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/obs"
	"cmtk/internal/rule"
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
