package fleet

import (
	"sync"

	"cmtk/internal/obs"
)

// Router is one shell's (or translator's) live view of the route table.
// Install is epoch-monotonic: a stale table — delivered late by a slow
// control channel — can never roll ownership backwards.  Routers
// implement shell.ShardRouter, so a shell constructed with
// Options.Router resolves rule ownership and fire targets through the
// fleet table instead of the static site→shell map.
type Router struct {
	id string

	mu sync.RWMutex
	t  Table

	epoch    *obs.Gauge
	members  *obs.Gauge
	owned    *obs.Gauge
	forwards *obs.CounterVec
	stale    *obs.Counter
}

// NewRouter creates a router for one shell (or ingress) identity.  Until
// the first Install the router resolves nothing, and a sharded shell
// falls back to static site ownership.
func NewRouter(id string, reg *obs.Registry) *Router {
	if reg == nil {
		reg = obs.Default
	}
	return &Router{
		id: id,
		epoch: reg.Gauge("cmtk_fleet_epoch",
			"Route-table epoch currently installed on the shell's router.", "shell").With(id),
		members: reg.Gauge("cmtk_fleet_members",
			"Member count of the installed route table.", "shell").With(id),
		owned: reg.Gauge("cmtk_fleet_owned_bases",
			"Item bases the installed route table assigns to this shell.", "shell").With(id),
		forwards: reg.Counter("cmtk_fleet_forwards_total",
			"Messages re-routed to the current owner because this shell no longer (or never) owned the base, by kind (fire|trigger).",
			"shell", "kind"),
		stale: reg.Counter("cmtk_fleet_stale_epoch_total",
			"Inbound messages stamped with an older route-table epoch than the one installed here.", "shell").With(id),
	}
}

// Install adopts a table if it is newer than the current one; it reports
// whether the table was installed.  Equal-epoch reinstallation is a
// no-op (idempotent redelivery), older epochs are rejected.
func (r *Router) Install(t Table) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.t.Owners != nil && t.Epoch <= r.t.Epoch {
		return false
	}
	r.t = t
	r.epoch.Set(int64(t.Epoch))
	r.members.Set(int64(len(t.Members)))
	n := 0
	for _, m := range t.Owners {
		if m == r.id {
			n++
		}
	}
	r.owned.Set(int64(n))
	return true
}

// Epoch returns the installed table's epoch (0 before first Install).
func (r *Router) Epoch() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.t.Epoch
}

// OwnerOf resolves the owner of an item base; ok is false for bases
// outside the table (which a sharded shell routes statically, so mixed
// deployments — sharded private state, fixed translator sites — work).
func (r *Router) OwnerOf(base string) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.t.Owners == nil {
		return "", false
	}
	m, ok := r.t.Owners[base]
	return m, ok
}

// Forwarded counts one message re-routed toward the current owner.
func (r *Router) Forwarded(kind string) { r.forwards.With(r.id, kind).Inc() }

// Stale counts one inbound message carrying an older epoch than the
// installed table — the in-flight tail of a rebalance.
func (r *Router) Stale() { r.stale.Inc() }
