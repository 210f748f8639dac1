package durable

import "cmtk/internal/obs"

// walMetrics holds the cmtk_wal_* families (see OBSERVABILITY.md); each
// Log resolves its own label cells once at open.
type walMetrics struct {
	appends, fsyncs, bytes  *obs.CounterVec
	checkpoints, replayed   *obs.CounterVec
	damage                  *obs.CounterVec // log, kind
	size, segments, ckptAge *obs.GaugeVec
	failed                  *obs.GaugeVec
}

func newWALMetrics(reg *obs.Registry) walMetrics {
	if reg == nil {
		reg = obs.Default
	}
	return walMetrics{
		appends: reg.Counter("cmtk_wal_appends_total",
			"Records appended to a write-ahead log.", "log"),
		fsyncs: reg.Counter("cmtk_wal_fsyncs_total",
			"fsync calls issued by a log (appends per the sync policy, checkpoints, clean shutdown).", "log"),
		bytes: reg.Counter("cmtk_wal_appended_bytes_total",
			"Bytes appended to a write-ahead log, including framing.", "log"),
		checkpoints: reg.Counter("cmtk_wal_checkpoints_total",
			"Checkpoints taken: snapshot written, log truncated.", "log"),
		replayed: reg.Counter("cmtk_wal_recovery_replayed_total",
			"Records replayed from the log during recovery at open.", "log"),
		damage: reg.Counter("cmtk_wal_recovery_damage_total",
			"Damage found during recovery, by kind (torn-tail, crc, orphaned-segment, checkpoint).", "log", "kind"),
		size: reg.Gauge("cmtk_wal_size_bytes",
			"Current size of a log's live segments.", "log"),
		segments: reg.Gauge("cmtk_wal_segments",
			"Live segment files of a log.", "log"),
		ckptAge: reg.Gauge("cmtk_wal_last_checkpoint_unix_seconds",
			"Unix time of a log's last checkpoint (0: none yet); age = now - value.", "log"),
		failed: reg.Gauge("cmtk_wal_failed",
			"1 once a log has stopped accepting writes after a failed append, fsync or checkpoint; 0 while healthy.", "log"),
	}
}

// logMetrics are one log's resolved cells.
type logMetrics struct {
	appends, fsyncs, bytes *obs.Counter
	checkpoints, replayed  *obs.Counter
	size, segments, ckpt   *obs.Gauge
	failed                 *obs.Gauge
	damage                 func(kind string) *obs.Counter
}

func (m walMetrics) forLog(name string) logMetrics {
	return logMetrics{
		appends:     m.appends.With(name),
		fsyncs:      m.fsyncs.With(name),
		bytes:       m.bytes.With(name),
		checkpoints: m.checkpoints.With(name),
		replayed:    m.replayed.With(name),
		size:        m.size.With(name),
		segments:    m.segments.With(name),
		ckpt:        m.ckptAge.With(name),
		failed:      m.failed.With(name),
		damage:      func(kind string) *obs.Counter { return m.damage.With(name, kind) },
	}
}
