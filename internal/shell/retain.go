// Bounded-memory retention.  A shell's trace grows without bound under
// sustained load; the only reader that needs deep history is the
// guarantee checker, and every monitorable guarantee declares a finite
// window.  EnableRetention wires the three pieces together: a
// guarantee.Monitor advances incrementally over the trace and publishes
// a retention horizon (nothing before it can change any verdict), the
// shell widens that horizon by its strategy hold (the largest rule δ,
// so in-flight firings keep their trigger provenance), and the trace
// folds everything older into its base interpretation.  Each fold is
// persisted as a sectioned, CRC-verified checkpoint through
// internal/durable, so a restarted shell cold-starts from checkpoint +
// WAL tail instead of replaying history.
package shell

import (
	"encoding/json"
	"fmt"
	"time"

	"cmtk/internal/durable"
	"cmtk/internal/guarantee"
	"cmtk/internal/obs"
	"cmtk/internal/trace"
	"cmtk/internal/vclock"
)

// Retention configures guarantee-aware trace compaction for a shell.
type Retention struct {
	// Monitor supplies the retention horizon: only guarantees registered
	// here are consulted, and all of them must be incrementally
	// monitorable (finite window).  Required.
	Monitor *guarantee.Monitor

	// Every is the compaction cadence on the shell clock; 0 disables the
	// periodic driver (CompactNow can still be called directly).
	Every time.Duration

	// Store, when set, persists folds as verified checkpoints (log
	// "trace-"+id) and restores from one on enable.
	Store *durable.Store

	// CheckpointEvery writes the durable checkpoint on every Nth pruning
	// round instead of after each one (default 1), trading checkpoint
	// fsyncs against how stale a crash-recovered base may be.  A clean
	// shutdown is unaffected: the store's close hook always writes a
	// final checkpoint.
	CheckpointEvery int
}

// RetentionRestore reports what EnableRetention recovered at cold start.
type RetentionRestore struct {
	// Restored is true when a verified checkpoint was imported into the
	// trace (and the monitor resumed from it, when one was checkpointed).
	Restored bool
	// BaseSeq is the sequence number recording resumes at after restore.
	BaseSeq uint64
	// Report is the granular section-by-section import verdict.  When the
	// snapshot failed verification the import is rejected whole and the
	// shell falls back to WAL-tail-only recovery; Report names exactly
	// which sections rotted.
	Report durable.ImportReport
}

// retention is the live compaction driver behind EnableRetention.
type retention struct {
	mon       *guarantee.Monitor
	hold      time.Duration
	log       *durable.Log
	timer     vclock.Timer
	ckptEvery int
	rounds    int   // pruning rounds since the last checkpoint
	err       error // first checkpoint-write failure, latched
	m         retainMetrics
}

type retainMetrics struct {
	retained    *obs.Gauge
	pruned      *obs.Counter
	prunedBytes *obs.Counter
	compactions *obs.Counter
	ckptBytes   *obs.Gauge
	rejected    *obs.CounterVec
	shell       string
}

func newRetainMetrics(reg *obs.Registry, id string) retainMetrics {
	if reg == nil {
		reg = obs.Default
	}
	return retainMetrics{
		retained: reg.Gauge("cmtk_trace_retained_events",
			"Events currently held in the shell's trace (history before the retention horizon is folded away).", "shell").With(id),
		pruned: reg.Counter("cmtk_trace_pruned_total",
			"Events folded out of the trace by guarantee-aware compaction.", "shell").With(id),
		prunedBytes: reg.Counter("cmtk_trace_pruned_bytes_total",
			"Estimated heap bytes released by trace compaction.", "shell").With(id),
		compactions: reg.Counter("cmtk_trace_compactions_total",
			"Compaction rounds that folded at least one event.", "shell").With(id),
		ckptBytes: reg.Gauge("cmtk_trace_checkpoint_bytes",
			"Size of the last durable trace checkpoint (sectioned snapshot).", "shell").With(id),
		rejected: reg.Counter("cmtk_snapshot_import_rejected_total",
			"Checkpoint snapshot sections rejected at import, by failure reason; a rejected snapshot falls back to WAL-tail-only recovery.", "shell", "reason"),
		shell: id,
	}
}

// strategyHold is how far behind the guarantee horizon the fold must
// stay for the strategy's sake: the widest rule δ still admits firings
// whose trigger event is that old, and those firings need trigger
// provenance.  Implicit interface rules use the default δ, so that is
// the floor.
func (s *Shell) strategyHold() time.Duration {
	hold := time.Second // implicit interface rules default to δ = 1s
	if s.spec != nil {
		for _, r := range s.spec.Rules {
			if r.Delta > hold {
				hold = r.Delta
			}
		}
	}
	return hold
}

// EnableRetention bounds the shell's trace memory: history older than
// the monitor's horizon (widened by the strategy hold) is
// folded into the trace base on a periodic cadence, and each fold is
// checkpointed durably when a store is given.  On enable, a persisted
// checkpoint is verified section-by-section and imported all-or-nothing
// — a damaged snapshot is rejected with granular counts and the shell
// recovers from the WAL tail alone.  Call after New and before Start or
// any traffic (a restore into a non-empty trace fails).
func (s *Shell) EnableRetention(r Retention) (RetentionRestore, error) {
	var res RetentionRestore
	if r.Monitor == nil {
		return res, fmt.Errorf("shell %s: retention needs a guarantee monitor", s.id)
	}
	s.retainMu.Lock()
	defer s.retainMu.Unlock()
	if s.retain != nil {
		return res, fmt.Errorf("shell %s: retention already enabled", s.id)
	}
	rt := &retention{
		mon:       r.Monitor,
		hold:      s.strategyHold(),
		ckptEvery: max(r.CheckpointEvery, 1),
		m:         newRetainMetrics(s.opts.Metrics, s.id),
	}
	if r.Store != nil {
		lg, rec, err := r.Store.Log("trace-" + s.id)
		if err != nil {
			return res, err
		}
		if rec == nil {
			return res, fmt.Errorf("shell %s: trace log already in use", s.id)
		}
		rt.log = lg
		if rec.Snapshot != nil {
			restored, err := s.importTraceSnapshot(rt, r.Monitor, rec.Snapshot, &res)
			if err != nil {
				return res, err
			}
			res.Restored = restored
		} else if len(rec.Damage) > 0 {
			// The log layer's own frame checksum already rejected the
			// checkpoint file; same outcome, same counter.
			rt.m.rejected.With(rt.m.shell, "checkpoint").Inc()
		}
		r.Store.OnClose(func() error {
			s.retainMu.Lock()
			defer s.retainMu.Unlock()
			s.checkpointTraceLocked(rt)
			return rt.err
		})
	}
	if r.Every > 0 {
		rt.timer = vclock.Every(s.clock, r.Every, func() { s.CompactNow() })
		s.cancels = append(s.cancels, func() { rt.timer.Stop() })
	}
	rt.m.retained.Set(int64(s.tr.Len()))
	s.retain = rt
	return res, nil
}

// importTraceSnapshot verifies and applies one persisted checkpoint.
// Verification failures are not errors: they are counted per section and
// the shell proceeds empty-handed (WAL-tail-only recovery).  Failures
// *after* verification — a trace that already has events, a monitor that
// cannot resume — are real errors, because half-applying a verified
// checkpoint would be worse than rejecting it.
func (s *Shell) importTraceSnapshot(rt *retention, mon *guarantee.Monitor, snap []byte, res *RetentionRestore) (bool, error) {
	secs, rep := durable.DecodeSections(snap)
	res.Report = rep
	if err := rep.Err(); err != nil {
		rt.countRejections(rep)
		return false, nil
	}
	cs, err := decodeTraceCheckpoint(secs)
	if err != nil {
		rt.m.rejected.With(rt.m.shell, "decode").Inc()
		return false, nil
	}
	if err := s.tr.Restore(cs); err != nil {
		return false, fmt.Errorf("shell %s: restoring trace checkpoint: %w", s.id, err)
	}
	if blob, ok := secs["monitor"]; ok {
		if err := mon.Resume(blob); err != nil {
			return false, fmt.Errorf("shell %s: resuming monitor from checkpoint: %w", s.id, err)
		}
	}
	res.BaseSeq = s.tr.BaseSeq()
	return true, nil
}

func (rt *retention) countRejections(rep durable.ImportReport) {
	if rep.Reason != "" {
		rt.m.rejected.With(rt.m.shell, rep.Reason).Inc()
		return
	}
	for _, st := range rep.Sections {
		if st.Err != "" {
			rt.m.rejected.With(rt.m.shell, st.Err).Inc()
		}
	}
}

// CompactNow runs one retention round: advance the monitor over the
// trace, fold everything older than horizon − hold, publish the
// retention gauges, and (when a store is attached) write the fold as a
// durable checkpoint.  It is the body of the periodic driver and safe to
// call directly; rounds are serialized by retainMu.
//
//cmlint:acquires 10, 20
func (s *Shell) CompactNow() trace.CompactStats {
	s.retainMu.Lock()
	defer s.retainMu.Unlock()
	rt := s.retain
	if rt == nil {
		return trace.CompactStats{}
	}
	rt.mon.Advance(s.tr)
	var stats trace.CompactStats
	if h, ok := rt.mon.Horizon(); ok {
		stats = s.tr.CompactBefore(h.Add(-rt.hold), rt.hold)
	}
	rt.m.retained.Set(int64(s.tr.Len()))
	if stats.PrunedEvents > 0 {
		rt.m.pruned.Add(uint64(stats.PrunedEvents))
		rt.m.prunedBytes.Add(stats.PrunedBytes)
		rt.m.compactions.Inc()
		if rt.rounds++; rt.rounds >= rt.ckptEvery {
			s.checkpointTraceLocked(rt)
			rt.rounds = 0
		}
	}
	return stats
}

// RetentionError reports the first durable checkpoint failure, if any
// (latched, like the private-state journal: the last checkpoint that
// reached disk is what the next incarnation recovers).
//
//cmlint:allow deadsurface(production reads this latch through its OnClose hook; tests read it here)
func (s *Shell) RetentionError() error {
	s.retainMu.Lock()
	defer s.retainMu.Unlock()
	if s.retain == nil {
		return nil
	}
	return s.retain.err
}

// checkpointTraceLocked writes the current fold as a sectioned snapshot:
// "meta" carries the sequence/accounting frame, "base" the folded
// interpretation, "monitor" the guarantee monitor's pending obligations.
// Caller holds retainMu.
func (s *Shell) checkpointTraceLocked(rt *retention) {
	if rt.log == nil || rt.err != nil {
		return
	}
	cs := s.tr.Checkpoint()
	meta := cs
	meta.Base = nil
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		rt.err = err
		return
	}
	baseJSON, err := json.Marshal(cs.Base)
	if err != nil {
		rt.err = err
		return
	}
	monBlob, err := rt.mon.Handoff()
	if err != nil {
		rt.err = err
		return
	}
	snap := durable.EncodeSections([]durable.Section{
		{Name: "meta", Data: metaJSON},
		{Name: "base", Data: baseJSON},
		{Name: "monitor", Data: monBlob},
	})
	if err := rt.log.Checkpoint(snap); err != nil {
		rt.err = err
		return
	}
	rt.m.ckptBytes.Set(int64(len(snap)))
}

// DecodeTraceCheckpoint verifies a persisted trace checkpoint the way a
// cold start does before it restores one: every section's CRC, then the
// "meta" and "base" sections.  It returns the checkpoint state and the
// per-section report; an error means a cold start would discard the
// snapshot.  The "monitor" section is checked by its CRC only, because
// resuming it needs the deployment's guarantees.
func DecodeTraceCheckpoint(snap []byte) (trace.CheckpointState, durable.ImportReport, error) {
	secs, rep := durable.DecodeSections(snap)
	if err := rep.Err(); err != nil {
		return trace.CheckpointState{}, rep, err
	}
	cs, err := decodeTraceCheckpoint(secs)
	return cs, rep, err
}

// decodeTraceCheckpoint reassembles a trace.CheckpointState from the
// verified "meta" and "base" sections.
func decodeTraceCheckpoint(secs map[string][]byte) (trace.CheckpointState, error) {
	var cs trace.CheckpointState
	meta, ok := secs["meta"]
	if !ok {
		return cs, fmt.Errorf("shell: checkpoint missing meta section")
	}
	if err := json.Unmarshal(meta, &cs); err != nil {
		return cs, fmt.Errorf("shell: decoding checkpoint meta: %w", err)
	}
	if base, ok := secs["base"]; ok {
		if err := json.Unmarshal(base, &cs.Base); err != nil {
			return cs, fmt.Errorf("shell: decoding checkpoint base: %w", err)
		}
	}
	return cs, nil
}
