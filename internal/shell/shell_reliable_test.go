package shell

import (
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"cmtk/internal/cmi"
	"cmtk/internal/data"
	"cmtk/internal/durable"
	"cmtk/internal/obs"
	"cmtk/internal/rule"
	"cmtk/internal/trace"
	"cmtk/internal/transport"
	"cmtk/internal/vclock"
)

// brokenEndpoint rejects every send, like a raw TCP endpoint with a dead
// peer.
type brokenEndpoint struct{}

func (brokenEndpoint) Send(string, transport.Message) error {
	return errors.New("connection refused")
}
func (brokenEndpoint) Close() error { return nil }

const twoSiteSpec = `
site S
site R
private X @ S
private Y @ R
rule r: Ws(X, b) ->1s W(Y, b)
`

func TestSendFailureReportEnrichedAndCounted(t *testing.T) {
	clk := vclock.NewVirtual(vclock.Epoch)
	spec, err := rule.ParseSpecString(twoSiteSpec)
	if err != nil {
		t.Fatal(err)
	}
	s := New("s", spec, Options{Clock: clk})
	s.AddSite("S", nil)
	s.Route("R", "remote")
	s.ep = brokenEndpoint{}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	s.Spontaneous(data.Item("X"), data.NullValue, data.NewInt(1))
	clk.Advance(time.Second)
	fs := s.Failures()
	if len(fs) != 1 {
		t.Fatalf("failures = %v", fs)
	}
	f := fs[0]
	if f.Kind != cmi.FailMetric || f.Site != "R" {
		t.Fatalf("failure = %+v", f)
	}
	// The report names the rule and the target shell.
	if !strings.Contains(f.Op, "r") || !strings.Contains(f.Err.Error(), "rule r") ||
		!strings.Contains(f.Err.Error(), "shell remote") {
		t.Fatalf("unenriched failure: op=%q err=%q", f.Op, f.Err)
	}
	st := s.Delivery()
	if st.RemoteFires != 1 || st.DroppedFires != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRecoveredMessageClearsLinkFailures(t *testing.T) {
	clk := vclock.NewVirtual(vclock.Epoch)
	spec, _ := rule.ParseSpecString("site S\nprivate X @ S\n")
	s := New("s", spec, Options{Clock: clk})
	s.AddSite("S", nil)
	s.receive(transport.Message{Kind: "failure", FailSite: "R", FailKind: "metric", FailOp: "link", FailErr: "down"})
	s.receive(transport.Message{Kind: "failure", FailSite: "R", FailKind: "metric", FailOp: "send", FailErr: "other"})
	if len(s.Failures()) != 2 {
		t.Fatalf("failures = %v", s.Failures())
	}
	s.receive(transport.Message{Kind: "recovered", FailSite: "R", FailOp: "link"})
	fs := s.Failures()
	// Only the link failure is cleared; unrelated failures stay.
	if len(fs) != 1 || fs[0].Op != "send" {
		t.Fatalf("failures after recovery = %v", fs)
	}
}

// TestShellsSurvivePartitionWithReliableLinks drives a two-shell
// deployment over Reliable(Flaky(Bus)) through a full outage cycle:
// during the partition the sender records only metric link failures and
// keeps buffering; after heal the outbox replays in order, the remote
// write lands, and the recovery notification clears the link failures on
// both shells.
func TestShellsSurvivePartitionWithReliableLinks(t *testing.T) {
	clk := vclock.NewVirtual(vclock.Epoch)
	spec, err := rule.ParseSpecString(twoSiteSpec)
	if err != nil {
		t.Fatal(err)
	}
	flaky := transport.NewFlaky(transport.NewBus(clk, 10*time.Millisecond),
		transport.FlakyOptions{Clock: clk})
	rel := transport.NewReliable(flaky, transport.ReliableOptions{
		Clock: clk, RetryInterval: time.Second, MaxBackoff: 2 * time.Second,
		FailThreshold: 2, Seed: 5,
	})
	a := New("a", spec, Options{Clock: clk})
	a.AddSite("S", nil)
	a.Route("R", "b")
	b := New("b", spec, Options{Clock: clk})
	b.AddSite("R", nil)
	b.Route("S", "a")
	if err := a.Attach(rel); err != nil {
		t.Fatal(err)
	}
	if err := b.Attach(rel); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	defer b.Stop()

	// Healthy link: the remote write propagates.
	a.Spontaneous(data.Item("X"), data.NullValue, data.NewInt(1))
	clk.Advance(5 * time.Second)
	if v, ok := b.ReadAux(data.Item("Y")); !ok || !v.Equal(data.NewInt(1)) {
		t.Fatalf("Y = %s, %v", v, ok)
	}

	// Outage: updates buffer, the link degrades to a metric failure.
	flaky.PartitionBoth("a", "b")
	a.Spontaneous(data.Item("X"), data.NewInt(1), data.NewInt(2))
	a.Spontaneous(data.Item("X"), data.NewInt(2), data.NewInt(3))
	clk.Advance(30 * time.Second)
	if v, _ := b.ReadAux(data.Item("Y")); !v.Equal(data.NewInt(1)) {
		t.Fatalf("Y crossed a partition: %s", v)
	}
	var metric, logical int
	for _, f := range a.Failures() {
		switch f.Kind {
		case cmi.FailMetric:
			metric++
		case cmi.FailLogical:
			logical++
		}
	}
	if metric == 0 || logical != 0 {
		t.Fatalf("during outage: %d metric, %d logical: %v", metric, logical, a.Failures())
	}
	// The retry cadence is driven by the virtual clock against seeded
	// backoff, so the 30s outage produces exactly this many fire
	// retransmission attempts for the two buffered updates.
	if st := a.Delivery(); st.RetriedFires != 28 {
		t.Fatalf("retried fires during outage = %d, want exactly 28: %+v", st.RetriedFires, st)
	}

	// Heal: ordered replay, then recovery clears the failures everywhere.
	flaky.HealAll()
	clk.Advance(30 * time.Second)
	if v, ok := b.ReadAux(data.Item("Y")); !ok || !v.Equal(data.NewInt(3)) {
		t.Fatalf("after heal Y = %s, %v", v, ok)
	}
	// Heal replays exactly the outage backlog — the two buffered fires
	// plus the retransmission in flight when the link came back — and
	// drops nothing.
	if st := a.Delivery(); st.ReplayedSends != 3 || st.DroppedFires != 0 {
		t.Fatalf("stats after heal: %+v, want exactly 3 replayed, 0 dropped", st)
	}
	for name, sh := range map[string]*Shell{"a": a, "b": b} {
		for _, f := range sh.Failures() {
			if f.Op == "link" {
				t.Fatalf("shell %s still records link failure after recovery: %v", name, f)
			}
		}
	}
}

// TestJournaledRemoteFiresReadBindingsOnly: over a journaled Reliable
// link the receiver is handed the very bindings map the sender's outbox
// keeps, and a checkpoint encodes that outbox.  Every update's value is
// 64 KiB, so the journal crosses its 256 KiB checkpoint threshold every
// two updates while the receiver runs.  The remote firing binds "now" as
// it runs W(T, now); it must bind it in the shell's own execB, never in
// the map it was handed, or the race detector sees the checkpoint race
// the receiver.
func TestJournaledRemoteFiresReadBindingsOnly(t *testing.T) {
	sp, err := rule.ParseSpecString(`site S
site B
private X @ S
private W @ B
private T @ B
rule t: Ws(X, b) ->5s W(T, now)
rule w: Ws(X, b) ->5s W(W, b)
`)
	if err != nil {
		t.Fatal(err)
	}
	walReg := obs.NewRegistry()
	st, err := durable.Open(t.TempDir(), durable.Options{Sync: durable.SyncNever, Metrics: walReg})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	net := transport.NewReliable(transport.NewBus(vclock.Real{}, 0), transport.ReliableOptions{
		Durable: st, RetryInterval: 20 * time.Millisecond, Metrics: obs.NewRegistry(),
	})
	tr := trace.New(nil)
	sa := New("sa", sp, Options{Trace: tr, Metrics: obs.NewRegistry()})
	sa.AddSite("S", nil)
	sa.Route("B", "sb")
	sb := New("sb", sp, Options{Trace: tr, Metrics: obs.NewRegistry()})
	sb.AddSite("B", nil)
	sb.Route("S", "sa")
	for _, s := range []*Shell{sa, sb} {
		if err := s.Attach(net); err != nil {
			t.Fatal(err)
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
	}
	defer sb.Stop()
	defer sa.Stop()
	const n = 100
	val := func(i int) data.Value { return data.NewString(strconv.Itoa(i) + strings.Repeat("x", 64<<10)) }
	for i := 1; i <= n; i++ {
		sa.Spontaneous(data.Item("X"), val(i-1), val(i))
	}
	// Rule t fires before rule w on each update and the link is FIFO, so
	// once W holds the last value every W(T, now) has run.
	deadline := time.Now().Add(10 * time.Second)
	for {
		sb.Drain()
		if v, _ := sb.ReadAux(data.Item("W")); v.Equal(val(n)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("remote firings never all arrived")
		}
		time.Sleep(time.Millisecond)
	}
	if _, ok := sb.ReadAux(data.Item("T")); !ok {
		t.Fatal("T was never written with the firing time")
	}
	// Precondition: the sender's journal checkpointed while it sent (one
	// at start, then one per ~256 KiB journaled), not only at close.
	if c := walReg.Snapshot()[`cmtk_wal_checkpoints_total{log="rel-sa"}`]; c < n/4 {
		t.Fatalf("rel-sa took %v checkpoints during the run, want at least %d", c, n/4)
	}
	sa.Stop()
	sb.Stop()
	if err := st.Close(); err != nil { // every journal write reached the log
		t.Fatal(err)
	}
}
