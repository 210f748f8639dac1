package chaos

import (
	"testing"
	"time"

	"cmtk/internal/obs"
	"cmtk/internal/transport"
	"cmtk/internal/vclock"
)

// TestCampaignExactTimeline runs a three-fault campaign on a virtual
// clock and asserts the timeline exactly: which actions, in which order,
// at which instants.
func TestCampaignExactTimeline(t *testing.T) {
	clk := vclock.NewVirtual(vclock.Epoch)
	var fired []string
	mark := func(s string) func() { return func() { fired = append(fired, s) } }
	r := Start(clk, Campaign{
		Name: "test",
		Faults: []Fault{
			{Name: "a", At: 1 * time.Second, Duration: 2 * time.Second, Inject: mark("a+"), Recover: mark("a-")},
			{Name: "b", At: 2 * time.Second, Inject: mark("b+"), Recover: mark("b-")}, // no recovery: dur 0
			{Name: "c", At: 3 * time.Second, Duration: 1 * time.Second, Inject: mark("c+"), Recover: mark("c-")},
		},
	})
	clk.Advance(10 * time.Second)
	want := []Entry{
		{At: vclock.Epoch.Add(1 * time.Second), Fault: "a", Action: ActInject},
		{At: vclock.Epoch.Add(2 * time.Second), Fault: "b", Action: ActInject},
		{At: vclock.Epoch.Add(3 * time.Second), Fault: "a", Action: ActRecover},
		{At: vclock.Epoch.Add(3 * time.Second), Fault: "c", Action: ActInject},
		{At: vclock.Epoch.Add(4 * time.Second), Fault: "c", Action: ActRecover},
	}
	got := r.Timeline()
	if len(got) != len(want) {
		t.Fatalf("timeline has %d entries, want exactly %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("timeline[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	wantFired := []string{"a+", "b+", "a-", "c+", "c-"}
	if len(fired) != len(wantFired) {
		t.Fatalf("fired = %v, want %v", fired, wantFired)
	}
	for i := range wantFired {
		if fired[i] != wantFired[i] {
			t.Fatalf("fired[%d] = %s, want %s", i, fired[i], wantFired[i])
		}
	}
	inj, rec := r.Counts()
	if inj["a"] != 1 || inj["b"] != 1 || inj["c"] != 1 || len(inj) != 3 {
		t.Fatalf("inject counts = %v", inj)
	}
	if rec["a"] != 1 || rec["c"] != 1 || len(rec) != 2 {
		t.Fatalf("recover counts = %v (b must not recover)", rec)
	}
}

// TestStopCancelsPending stops mid-campaign: actions already run stay in
// the timeline, pending ones never fire.
func TestStopCancelsPending(t *testing.T) {
	clk := vclock.NewVirtual(vclock.Epoch)
	n := 0
	r := Start(clk, Campaign{Faults: []Fault{
		{Name: "x", At: time.Second, Duration: 4 * time.Second, Inject: func() { n++ }, Recover: func() { n += 100 }},
	}})
	clk.Advance(2 * time.Second) // inject ran, recover pending
	r.Stop()
	clk.Advance(10 * time.Second)
	if n != 1 {
		t.Fatalf("n = %d, want 1 (inject only; recover cancelled)", n)
	}
	if tl := r.Timeline(); len(tl) != 1 || tl[0].Action != ActInject {
		t.Fatalf("timeline = %v", tl)
	}
}

// TestPartitionFaultDropsExactly wires a Partition fault to a real Flaky
// bus and counts delivery exactly: messages sent during the fault window
// are black-holed, ones before and after arrive.
func TestPartitionFaultDropsExactly(t *testing.T) {
	clk := vclock.NewVirtual(vclock.Epoch)
	reg := obs.NewRegistry()
	flaky := transport.NewFlaky(transport.NewBus(clk, 0), transport.FlakyOptions{Clock: clk, Metrics: reg})
	var got int
	if _, err := flaky.Join("B", func(transport.Message) { got++ }); err != nil {
		t.Fatal(err)
	}
	a, err := flaky.Join("A", func(transport.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	Start(clk, Campaign{Faults: []Fault{
		Partition(flaky, "A", "B", 2*time.Second, 3*time.Second),
	}})
	// One message per second for 8 seconds: t=1..8; the window [2s,5s)
	// swallows sends at t=2,3,4 — exactly 5 arrive.
	for i := 1; i <= 8; i++ {
		clk.AfterFunc(time.Duration(i)*time.Second, func() {
			a.Send("B", transport.Message{Kind: "fire"})
		})
	}
	clk.Advance(10 * time.Second)
	if got != 5 {
		t.Fatalf("delivered = %d, want exactly 5 (3 black-holed by the partition)", got)
	}
	if parted := reg.Snapshot()[`cmtk_flaky_faults_total{kind="partition"}`]; parted != 3 {
		t.Fatalf("partition fault count = %v, want exactly 3", parted)
	}
}

// TestLossyAndSkewFaultsToggle checks the Lossy and Skew constructors
// restore state exactly on recovery.
func TestLossyAndSkewFaultsToggle(t *testing.T) {
	clk := vclock.NewVirtual(vclock.Epoch)
	reg := obs.NewRegistry()
	flaky := transport.NewFlaky(transport.NewBus(clk, 0), transport.FlakyOptions{Clock: clk, Metrics: reg, Seed: 3})
	skewed := vclock.NewSkewed(clk, 0)
	Start(clk, Campaign{Faults: []Fault{
		Lossy(flaky, 1.0, time.Second, 2*time.Second), // drop everything in [1s,3s)
		Skew(skewed, 30*time.Second, time.Second, 2*time.Second),
	}})
	clk.Advance(2 * time.Second) // inside both fault windows
	if skewed.Now() != clk.Now().Add(30*time.Second) {
		t.Fatalf("skewed Now = %v, want inner+30s", skewed.Now())
	}
	clk.Advance(2 * time.Second) // past recovery
	if off := skewed.Now().Sub(clk.Now()); off != 0 {
		t.Fatalf("offset after resync = %v, want 0", off)
	}
	// Lossy recovered too: a send now must arrive.
	var got int
	if _, err := flaky.Join("B", func(transport.Message) { got++ }); err != nil {
		t.Fatal(err)
	}
	a, err := flaky.Join("A", func(transport.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	a.Send("B", transport.Message{})
	clk.Advance(time.Second)
	if got != 1 {
		t.Fatalf("delivered after recovery = %d, want 1", got)
	}
}

// Timeline returns a copy of the recorded actions in execution order.
func (r *Runner) Timeline() []Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Entry(nil), r.timeline...)
}

// Counts aggregates the timeline: per fault name, how many inject and
// recover actions ran.  Exact-assertion helpers for experiments.
func (r *Runner) Counts() (inject, recover map[string]int) {
	inject, recover = map[string]int{}, map[string]int{}
	for _, e := range r.Timeline() {
		if e.Action == ActInject {
			inject[e.Fault]++
		} else {
			recover[e.Fault]++
		}
	}
	return inject, recover
}
