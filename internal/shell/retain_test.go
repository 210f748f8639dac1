package shell

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cmtk/internal/data"
	"cmtk/internal/durable"
	"cmtk/internal/guarantee"
	"cmtk/internal/obs"
	"cmtk/internal/rule"
	"cmtk/internal/vclock"
)

const retainPairs = 4

// retainShell builds a shell hosting retainPairs X→Y copy rules (δ=1s)
// on a virtual clock starting at `start`.
func retainShell(t *testing.T, id string, start time.Time, reg *obs.Registry) (*Shell, *vclock.Virtual) {
	t.Helper()
	var spec strings.Builder
	spec.WriteString("site S\n")
	for i := 0; i < retainPairs; i++ {
		fmt.Fprintf(&spec, "private X%d @ S\nprivate Y%d @ S\n", i, i)
		fmt.Fprintf(&spec, "rule r%d: Ws(X%d, b) ->1s W(Y%d, b)\n", i, i, i)
	}
	sp, err := rule.ParseSpecString(spec.String())
	if err != nil {
		t.Fatal(err)
	}
	clk := vclock.NewVirtual(start)
	s := New(id, sp, Options{Clock: clk, Metrics: reg})
	s.AddSite("S", nil)
	return s, clk
}

// retainGuarantees is the monitored set for the retention tests: every
// window is finite, so the monitor publishes a horizon.
func retainGuarantees() []guarantee.Guarantee {
	return []guarantee.Guarantee{
		guarantee.MetricFollows{X: "X0", Y: "Y0", Kappa: 3 * time.Second},
		guarantee.MetricLeads{X: "X1", Y: "Y1", Kappa: 3 * time.Second},
		guarantee.ExistsWithin{Ref: "X2", Target: "Y2", Kappa: 3 * time.Second},
	}
}

// driveRetained sends n spontaneous updates round-robin over the X
// items, one millisecond apart.
func driveRetained(s *Shell, clk *vclock.Virtual, from, n int) {
	for e := from; e < from+n; e++ {
		item := data.Item(fmt.Sprintf("X%d", e%retainPairs))
		s.Spontaneous(item, data.NewInt(int64(e)), data.NewInt(int64(e+1)))
		clk.Advance(time.Millisecond)
	}
}

// TestRetentionBoundsTraceAndPreservesVerdicts the periodic compactor
// must keep retained events bounded while the monitor's verdicts stay
// identical to the batch checker over an unpruned control shell fed the
// same workload.
func TestRetentionBoundsTraceAndPreservesVerdicts(t *testing.T) {
	reg := obs.NewRegistry()
	s, clk := retainShell(t, "ret", vclock.Epoch, reg)
	ctl, cclk := retainShell(t, "ctl", vclock.Epoch, obs.NewRegistry())
	mon, err := guarantee.NewMonitor(retainGuarantees()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.EnableRetention(Retention{Monitor: mon, Every: 2 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.EnableRetention(Retention{Monitor: mon}); err == nil {
		t.Fatal("double EnableRetention succeeded")
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	if err := ctl.Start(); err != nil {
		t.Fatal(err)
	}
	defer ctl.Stop()

	const n = 30000 // 30s of virtual time against a ~7s retention band
	driveRetained(s, clk, 0, n)
	driveRetained(ctl, cclk, 0, n)

	tr := s.Trace()
	if pruned, _ := tr.Pruned(); pruned == 0 {
		t.Fatal("periodic compactor pruned nothing")
	}
	if tr.TotalEvents() != uint64(ctl.Trace().Len()) {
		t.Fatalf("lifetime events %d, control %d", tr.TotalEvents(), ctl.Trace().Len())
	}
	if tr.Len() > ctl.Trace().Len()/2 {
		t.Fatalf("retained %d of %d events; retention is not bounding memory", tr.Len(), ctl.Trace().Len())
	}
	want := guarantee.CheckAll(ctl.Trace(), retainGuarantees()...)
	got := mon.Reports(tr)
	if !guarantee.EqualVerdicts(want, got) {
		t.Fatalf("verdicts diverged:\nbatch:   %+v\nmonitor: %+v", want, got)
	}
	for _, r := range got {
		if !r.Holds || r.Checked == 0 {
			t.Fatalf("guarantee %s: %+v", r.Guarantee, r)
		}
	}
	if g := reg.Snapshot()[`cmtk_trace_retained_events{shell="ret"}`]; int(g) != tr.Len() {
		t.Fatalf("retained gauge %v, trace holds %d", g, tr.Len())
	}
	if c := reg.Counter("cmtk_trace_pruned_total", "", "shell").With("ret"); c.Value() == 0 {
		t.Fatal("pruned counter never moved")
	}
}

// retainStore opens a durable store for the retention tests.
func retainStore(t *testing.T, dir string) *durable.Store {
	t.Helper()
	st, err := durable.Open(dir, durable.Options{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRetentionColdStartFromCheckpoint a restarted shell must come back
// from the durable checkpoint alone — no events replayed, sequence
// numbering and lifetime accounting continuous — and keep monitoring.
func TestRetentionColdStartFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	st := retainStore(t, dir)
	s1, clk1 := retainShell(t, "s", vclock.Epoch, obs.NewRegistry())
	m1, err := guarantee.NewMonitor(retainGuarantees()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.EnableRetention(Retention{Monitor: m1, Every: 2 * time.Second, Store: st}); err != nil {
		t.Fatal(err)
	}
	if err := s1.Start(); err != nil {
		t.Fatal(err)
	}
	driveRetained(s1, clk1, 0, 10000)
	s1.CompactNow()
	total1, final1 := s1.Trace().TotalEvents(), s1.Trace().Final()
	s1.Stop()
	if err := st.Close(); err != nil { // OnClose writes the final checkpoint
		t.Fatal(err)
	}

	st2 := retainStore(t, dir)
	defer st2.Close()
	s2, clk2 := retainShell(t, "s", clk1.Now().Add(time.Minute), obs.NewRegistry())
	m2, err := guarantee.NewMonitor(retainGuarantees()...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s2.EnableRetention(Retention{Monitor: m2, Every: 2 * time.Second, Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Restored || res.BaseSeq != total1 {
		t.Fatalf("restore: %+v, want restored at seq %d", res, total1)
	}
	if res.Report.Err() != nil || res.Report.Rejected != 0 {
		t.Fatalf("clean checkpoint reported damage: %+v", res.Report)
	}
	tr := s2.Trace()
	if tr.Len() != 0 || tr.TotalEvents() != total1 {
		t.Fatalf("cold start replayed events: len %d, total %d (want 0, %d)", tr.Len(), tr.TotalEvents(), total1)
	}
	if !tr.Initial().Equal(final1) {
		t.Fatalf("restored base %s, want %s", tr.Initial(), final1)
	}
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	defer s2.Stop()
	driveRetained(s2, clk2, 10000, 5000)
	for _, r := range m2.Reports(s2.Trace()) {
		if !r.Holds {
			t.Fatalf("guarantee broke across restart: %+v", r)
		}
	}
	s2.Stop()
	if err := st2.Close(); err != nil { // every checkpoint reached the log
		t.Fatal(err)
	}
}

// corruptCheckpointSection flips one byte inside the sectioned
// snapshot carried by a durable checkpoint file and re-seals the outer
// frame checksum — simulating payload corruption that happened before
// the checkpoint was written, which only the per-section CRCs catch.
func corruptCheckpointSection(t *testing.T, path, section string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Outer frame: [u32 len][u32 crc][type byte][u64 minSeg][snapshot].
	const snapOff = 8 + 1 + 8
	snap := raw[snapOff:]
	// A section frame opens with the u16 name length, so match that too
	// — the bare name can occur inside another section's JSON payload.
	needle := string([]byte{byte(len(section)), 0}) + section
	idx := strings.Index(string(snap), needle)
	if idx < 0 {
		t.Fatalf("section %q not found in %s", section, path)
	}
	// Section frame after the name: u32 length, u32 CRC, payload.
	snap[idx+len(needle)+8] ^= 0x40
	binary.LittleEndian.PutUint32(raw[4:8], crc32.ChecksumIEEE(raw[8:]))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCompactionCorruptedCheckpointRecovery a bit-flipped checkpoint
// section must be rejected granularly (nothing imported, the damaged
// section named and counted) while the shell still recovers everything
// the WAL tail holds — private state journaled in the shell log is
// unaffected and new traffic monitors cleanly.
func TestCompactionCorruptedCheckpointRecovery(t *testing.T) {
	dir := t.TempDir()
	st := retainStore(t, dir)
	s1, clk1 := retainShell(t, "s", vclock.Epoch, obs.NewRegistry())
	m1, err := guarantee.NewMonitor(retainGuarantees()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.EnableDurable(st); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.EnableRetention(Retention{Monitor: m1, Every: 2 * time.Second, Store: st}); err != nil {
		t.Fatal(err)
	}
	if err := s1.Start(); err != nil {
		t.Fatal(err)
	}
	s1.WriteAux(data.Item("X0"), data.NewInt(0))
	driveRetained(s1, clk1, 0, 8000)
	s1.Stop()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	corruptCheckpointSection(t, filepath.Join(dir, "trace-s.ckpt"), "base")

	st2 := retainStore(t, dir)
	defer st2.Close()
	reg := obs.NewRegistry()
	s2, clk2 := retainShell(t, "s", clk1.Now().Add(time.Minute), reg)
	// WAL-tail-only recovery: the shell's private journal is undamaged.
	if restored, err := s2.EnableDurable(st2); err != nil || restored == 0 {
		t.Fatalf("private recovery: %d items, err %v", restored, err)
	}
	m2, err := guarantee.NewMonitor(retainGuarantees()...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s2.EnableRetention(Retention{Monitor: m2, Every: 2 * time.Second, Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Restored {
		t.Fatal("corrupted checkpoint imported")
	}
	if res.Report.Rejected != 1 {
		t.Fatalf("rejected %d sections, want exactly 1: %+v", res.Report.Rejected, res.Report)
	}
	var bad string
	for _, sec := range res.Report.Sections {
		if sec.Err != "" {
			bad = sec.Name + ":" + sec.Err
		}
	}
	if bad != "base:crc" {
		t.Fatalf("granular verdicts: %v", res.Report.Sections)
	}
	rej := reg.Counter("cmtk_snapshot_import_rejected_total", "", "shell", "reason").With("s", "crc")
	if rej.Value() != 1 {
		t.Fatalf("rejection counter %d, want 1", rej.Value())
	}
	if tr := s2.Trace(); tr.TotalEvents() != 0 || tr.BaseSeq() != 0 {
		t.Fatal("rejected snapshot still mutated the trace")
	}
	// The shell works on: new traffic records, compacts, and monitors
	// cleanly from the WAL tail alone.
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	defer s2.Stop()
	driveRetained(s2, clk2, 0, 8000)
	if pruned, _ := s2.Trace().Pruned(); pruned == 0 {
		t.Fatal("post-recovery compaction pruned nothing")
	}
	for _, r := range m2.Reports(s2.Trace()) {
		if !r.Holds {
			t.Fatalf("post-recovery guarantee: %+v", r)
		}
	}
}
