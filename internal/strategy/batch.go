package strategy

import (
	"time"

	"cmtk/internal/cmi"
	"cmtk/internal/data"
	"cmtk/internal/guarantee"
	"cmtk/internal/rule"
	"cmtk/internal/shell"
	"cmtk/internal/trace"
	"cmtk/internal/vclock"
)

// Batcher implements the Section 6.4 end-of-day strategy for the banking
// scenario: once a day, after the update window closes, copy every value
// of the source family to the destination family.  Combined with the
// source's promise that no updates happen overnight, it realizes the
// periodic guarantee that the copies are equal from shortly after the
// batch until the next morning.
type Batcher struct {
	sh      *shell.Shell
	clock   vclock.Clock
	at      time.Duration // time of day the batch starts (e.g. 17h)
	src     cmi.Interface
	srcBase string
	dstBase string
	timer   vclock.Timer
	runs    int
	copied  int
}

// NewBatcher builds a batcher that runs daily at offset `at` past
// midnight on the given clock.  sh must host (or route to) the
// destination site; copies flow through shell write requests.
func NewBatcher(sh *shell.Shell, clock vclock.Clock, at time.Duration,
	src cmi.Interface, srcBase, dstBase string) *Batcher {
	return &Batcher{sh: sh, clock: clock, at: at, src: src, srcBase: srcBase, dstBase: dstBase}
}

// Guarantee returns the periodic guarantee: src(k) = dst(k) for every
// observed key k, every day from windowStart to windowEnd (offsets past
// midnight), assuming the source is quiet outside business hours.
func (b *Batcher) Guarantee(windowStart, windowEnd time.Duration) guarantee.Guarantee {
	return PeriodicFamily{
		Src: b.srcBase, Dst: b.dstBase,
		From: windowStart, To: windowEnd,
	}
}

// PeriodicFamily checks src(k) = dst(k) for every key k observed in the
// trace, at all instants inside the daily window.
type PeriodicFamily struct {
	Src, Dst string
	From, To time.Duration
}

// Name implements guarantee.Guarantee.
func (g PeriodicFamily) Name() string {
	return "periodic(" + g.Src + "=" + g.Dst + ")"
}

// Formula implements guarantee.Guarantee.
func (g PeriodicFamily) Formula() string {
	return "(" + g.Src + "(k) = " + g.Dst + "(k))@t for all k, all t with tod(t) in [" +
		g.From.String() + ", " + g.To.String() + ")"
}

// Check implements guarantee.Guarantee: one Periodic invariant per key
// seen on either family, reports merged.
func (g PeriodicFamily) Check(tr *trace.Trace) guarantee.Report {
	keys := map[string][]data.Value{}
	for _, e := range tr.Events() {
		if e.Desc.Op.HasItem() && (e.Desc.Item.Base == g.Src || e.Desc.Item.Base == g.Dst) {
			keys[data.ItemName{Base: "", Args: e.Desc.Item.Args}.String()] = e.Desc.Item.Args
		}
	}
	out := guarantee.Report{Guarantee: g.Name(), Formula: g.Formula(), Holds: true}
	for _, args := range keys {
		exprArgs := make([]rule.Expr, len(args))
		for i, a := range args {
			exprArgs[i] = rule.Lit{V: a}
		}
		pred := rule.Binary{Op: "=",
			L: rule.ItemRef{Base: g.Src, Args: exprArgs},
			R: rule.ItemRef{Base: g.Dst, Args: exprArgs},
		}
		rep := guarantee.Periodic{
			Label: g.Name(), Pred: pred, From: g.From, To: g.To,
		}.Check(tr)
		out.Checked += rep.Checked
		out.Violated += rep.Violated
		if !rep.Holds {
			out.Holds = false
			out.Violations = append(out.Violations, rep.Violations...)
		}
	}
	return out
}

// Start schedules the daily batch, aligned to the next occurrence of the
// configured time of day.
func (b *Batcher) Start() {
	now := b.clock.Now()
	midnight := time.Date(now.Year(), now.Month(), now.Day(), 0, 0, 0, 0, now.Location())
	next := midnight.Add(b.at)
	for !next.After(now) {
		next = next.Add(24 * time.Hour)
	}
	b.timer = b.clock.AfterFunc(next.Sub(now), b.tick)
}

func (b *Batcher) tick() {
	b.RunOnce()
	b.timer = b.clock.AfterFunc(24*time.Hour, b.tick)
}

// Stop cancels the schedule.
func (b *Batcher) Stop() {
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
}

// RunOnce performs one batch copy.
func (b *Batcher) RunOnce() {
	b.runs++
	items, err := b.src.List(b.srcBase)
	if err != nil {
		return
	}
	for _, it := range items {
		v, exists, err := b.src.Read(it)
		if err != nil {
			return
		}
		if !exists {
			continue
		}
		b.sh.RequestWrite(data.ItemName{Base: b.dstBase, Args: it.Args}, v)
		b.copied++
	}
}

// Stats reports batches run and values copied.
func (b *Batcher) Stats() (runs, copied int) { return b.runs, b.copied }
