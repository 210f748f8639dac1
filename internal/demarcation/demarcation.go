// Package demarcation implements the Demarcation Protocol [BGM92] for
// inter-site inequality constraints X ≤ Y, the Section 6.1 scenario.
//
// Each side keeps a local limit: Lx at X's site (a ceiling for X) and Ly
// at Y's site (a floor for Y).  The local constraint managers enforce
// X ≤ Lx and Y ≥ Ly, and the protocol maintains Lx ≤ Ly, so
//
//	X ≤ Lx ≤ Ly ≤ Y
//
// holds at all times — a strong, non-metric guarantee — while updates
// that stay within the local limit proceed with no remote communication
// at all.  Only updates that would cross the limit trigger a
// limit-change request to the peer, which grants slack according to a
// configurable policy (the paper notes different policies are compared
// through the limit-change guarantee).
//
// The invariant ordering trick: a site always moves its own limit in the
// safe direction *before* replying to a request, so Lx ≤ Ly is never
// violated in between messages even though there is no distributed
// transaction anywhere.
//
// The invariant is only as strong as the limits' storage: if a crash
// forgets that this side gave slack away, the restarted agent resurrects
// its old limit and the ordering silently breaks.  So an agent keeps its
// value and its limit in two CM-private items of its shell (Section 3.2
// and 6.1 make the limits such items), written before it replies to a
// request or reports an update done.  A shell with durable state
// (shell.EnableDurable) journals both, and Init resumes from them after a
// restart.  In-flight limit-change requests are not kept there: they
// live in the transport journal and are replayed by the reliability
// layer, and a grant that arrives for a request id the new incarnation
// does not recognise still moves the limit (the safe direction) — only
// the waiting application callback is lost.
package demarcation

import (
	"fmt"
	"strconv"
	"sync"

	"cmtk/internal/data"
	"cmtk/internal/guarantee"
	"cmtk/internal/rule"
	"cmtk/internal/shell"
	"cmtk/internal/transport"
)

// MessageKind is the custom transport kind used by agents.
const MessageKind = "demarc"

// Policy decides how much slack to grant a peer's limit-change request.
// requested is what the peer asked for; available is the most this side
// can give without violating its local constraint.
type Policy func(requested, available int64) int64

// Exact grants exactly what was asked, capped by availability.  Minimal
// slack transfer, maximal future round trips.
func Exact(requested, available int64) int64 {
	if requested < available {
		return requested
	}
	return available
}

// Generous grants the request plus half the remaining slack, so bursts of
// same-direction updates need fewer round trips.
func Generous(requested, available int64) int64 {
	if requested >= available {
		return available
	}
	return requested + (available-requested)/2
}

// Stats counts an agent's operations.
type Stats struct {
	LocalOps    int // updates satisfied within the local limit
	RemoteAsks  int // limit-change requests sent to the peer
	GrantsGiven int // limit-change requests granted to the peer
	Denied      int // updates that failed for lack of slack
}

// Agent manages one side of the constraint X ≤ Y.
type Agent struct {
	sh        *shell.Shell
	site      string
	peerShell string
	item      data.ItemName // X (lower side) or Y (upper side)
	valItem   data.ItemName // the CM-private item holding value
	limit     data.ItemName // Lx or Ly, the CM-private item holding lim
	lower     bool          // true for the X side
	policy    Policy

	mu      sync.Mutex
	value   int64
	lim     int64
	nextReq int64
	pending map[int64]*pendingOp
	stats   Stats
}

type pendingOp struct {
	delta  int64
	onDone func(ok bool)
}

// NewAgent builds one side of the protocol.  item is the constrained
// local data item; value and limit are the CM-private items that keep
// this side's value and limit; lower selects the X (true) or Y (false)
// role; peerShell is the shell ID hosting the other side.  The agent
// registers its message handler on the shell.
func NewAgent(sh *shell.Shell, site, peerShell string, item, value, limit data.ItemName, lower bool, policy Policy) *Agent {
	if policy == nil {
		policy = Exact
	}
	a := &Agent{
		sh: sh, site: site, peerShell: peerShell,
		item: item, valItem: value, limit: limit, lower: lower, policy: policy,
		pending: map[int64]*pendingOp{},
	}
	sh.HandleKind(MessageKind, a.onMessage)
	return a
}

// Init sets the initial value and limit.  The deployment must choose
// initial values satisfying X ≤ Lx ≤ Ly ≤ Y globally.  When the shell
// already holds both private items — restored from its journal after a
// restart — they win over the arguments: re-running the deployment's
// initialization after a crash must not reset slack this side already
// gave away.
func (a *Agent) Init(value, limit int64) {
	a.mu.Lock()
	v, haveV := a.sh.ReadAux(a.valItem)
	l, haveL := a.sh.ReadAux(a.limit)
	if haveV && haveL {
		value, limit = v.Int(), l.Int()
	} else {
		a.sh.WriteAux(a.valItem, data.NewInt(value))
		a.sh.WriteAux(a.limit, data.NewInt(limit))
	}
	a.value, a.lim = value, limit
	a.mu.Unlock()
	a.sh.RequestWrite(a.item, data.NewInt(value))
}

// Value returns the current local value.
func (a *Agent) Value() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.value
}

// Limit returns the current local limit.
func (a *Agent) Limit() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lim
}

// Stats returns a snapshot of the operation counters.
func (a *Agent) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// safeLocally reports whether value v satisfies the local limit
// constraint for this side's role.
func (a *Agent) safeLocally(v int64) bool {
	if a.lower {
		return v <= a.lim
	}
	return v >= a.lim
}

// Update applies a local delta to the constrained item.  When the new
// value stays within the local limit it applies immediately with no
// remote traffic and onDone(true) is called before Update returns.
// Otherwise a limit-change request is sent to the peer and onDone fires
// when the grant (or denial) arrives.  onDone may be nil.
func (a *Agent) Update(delta int64, onDone func(ok bool)) {
	if onDone == nil {
		onDone = func(bool) {}
	}
	a.mu.Lock()
	nv := a.value + delta
	if a.safeLocally(nv) {
		a.value = nv
		a.stats.LocalOps++
		a.sh.WriteAux(a.valItem, data.NewInt(nv))
		a.mu.Unlock()
		a.sh.RequestWrite(a.item, data.NewInt(nv))
		onDone(true)
		return
	}
	// Need the peer to move its limit first.
	var need int64
	if a.lower {
		need = nv - a.lim // raise Lx (and first Ly) by this much
	} else {
		need = a.lim - nv // lower Ly (and first Lx) by this much
	}
	a.nextReq++
	id := a.nextReq
	a.pending[id] = &pendingOp{delta: delta, onDone: onDone}
	a.stats.RemoteAsks++
	a.mu.Unlock()
	err := a.sh.SendCustom(a.peerShell, transport.Message{
		Kind: MessageKind,
		Payload: map[string]string{
			"op":     "request",
			"amount": strconv.FormatInt(need, 10),
			"req":    strconv.FormatInt(id, 10),
		},
	})
	if err != nil {
		a.mu.Lock()
		delete(a.pending, id)
		a.stats.Denied++
		a.mu.Unlock()
		onDone(false)
	}
}

// onMessage handles protocol traffic (runs on the shell's event queue).
func (a *Agent) onMessage(m transport.Message) {
	switch m.Payload["op"] {
	case "request":
		amount, err := strconv.ParseInt(m.Payload["amount"], 10, 64)
		if err != nil || amount < 0 {
			return
		}
		granted := a.grant(amount)
		a.sh.SendCustom(m.From, transport.Message{
			Kind: MessageKind,
			Payload: map[string]string{
				"op":     "grant",
				"amount": strconv.FormatInt(granted, 10),
				"req":    m.Payload["req"],
			},
		})
	case "grant":
		amount, err := strconv.ParseInt(m.Payload["amount"], 10, 64)
		if err != nil || amount < 0 {
			return
		}
		id, _ := strconv.ParseInt(m.Payload["req"], 10, 64)
		a.onGrant(id, amount)
	}
}

// grant moves this side's limit in the safe direction by up to the
// policy-decided amount and returns how much it moved.  Moving our own
// limit before replying is what keeps Lx ≤ Ly invariant at every instant.
func (a *Agent) grant(requested int64) int64 {
	a.mu.Lock()
	var available int64
	if a.lower {
		// Peer (upper) wants to lower Ly; we must lower Lx first.  We can
		// lower it to our current value at most.
		available = a.lim - a.value
	} else {
		// Peer (lower) wants to raise Lx; we must raise Ly first, at most
		// to our current value.
		available = a.value - a.lim
	}
	if available < 0 {
		available = 0
	}
	g := a.policy(requested, available)
	if g < 0 {
		g = 0
	}
	if g > available {
		g = available
	}
	if a.lower {
		a.lim -= g
	} else {
		a.lim += g
	}
	if g > 0 {
		a.stats.GrantsGiven++
		// Write before replying: once the grant is on the wire the peer
		// will widen its limit, so this side's narrowing must survive a
		// crash or the global ordering breaks.
		a.sh.WriteAux(a.limit, data.NewInt(a.lim))
	}
	a.mu.Unlock()
	return g
}

// onGrant applies a received grant to our limit and completes the pending
// update when possible.
func (a *Agent) onGrant(id, amount int64) {
	a.mu.Lock()
	op, ok := a.pending[id]
	if ok {
		delete(a.pending, id)
	}
	if a.lower {
		a.lim += amount
	} else {
		a.lim -= amount
	}
	a.sh.WriteAux(a.limit, data.NewInt(a.lim))
	if !ok {
		a.mu.Unlock()
		return
	}
	nv := a.value + op.delta
	if a.safeLocally(nv) {
		a.value = nv
		a.sh.WriteAux(a.valItem, data.NewInt(nv))
		a.mu.Unlock()
		a.sh.RequestWrite(a.item, data.NewInt(nv))
		op.onDone(true)
		return
	}
	a.stats.Denied++
	a.mu.Unlock()
	op.onDone(false)
}

// Guarantee returns the protocol's invariant guarantee X ≤ Y for the two
// item base names, checkable on any recorded trace.  States before both
// items exist (initialization) satisfy it vacuously.
func Guarantee(xBase, yBase string) guarantee.Guarantee {
	cmp := rule.Binary{Op: "<=",
		L: rule.ItemRef{Base: xBase},
		R: rule.ItemRef{Base: yBase},
	}
	missing := rule.Binary{Op: "||",
		L: rule.Unary{Op: '!', X: rule.Call{Fn: "exists", Args: []rule.Expr{rule.ItemRef{Base: xBase}}}},
		R: rule.Unary{Op: '!', X: rule.Call{Fn: "exists", Args: []rule.Expr{rule.ItemRef{Base: yBase}}}},
	}
	pred := rule.Binary{Op: "||", L: missing, R: cmp}
	return guarantee.Invariant{Label: fmt.Sprintf("%s<=%s", xBase, yBase), Pred: pred}
}
