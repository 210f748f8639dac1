// Sharded (fleet) operation.  A shell constructed with Options.Router
// resolves rule ownership and fire targets through a fleet route table
// instead of the static site→shell map: the shell owning a rule's
// anchor base (its LHS base; first sited effect base for P rules) owns
// the rule, external triggers arriving at a non-owner are forwarded to
// the current owner as "fleet-trigger" messages, and inbound fires for
// bases this shell no longer owns — the in-flight tail of a rebalance,
// stamped with a stale route-table epoch — are re-forwarded with a hop
// cap.  Bases absent from the table fall back to static site routing,
// so a deployment can shard its CM-private constraint state while
// translator-backed sites stay pinned.  DESIGN.md §10 documents the
// model; package fleet builds the tables.

package shell

import (
	"fmt"
	"strconv"

	"cmtk/internal/cmi"
	"cmtk/internal/data"
	"cmtk/internal/event"
	"cmtk/internal/rule"
	"cmtk/internal/transport"
)

// ShardRouter is the shell's view of a fleet route table
// (fleet.Router implements it).  OwnerOf resolves an item base to the
// shell currently owning it; Epoch stamps outbound messages so
// receivers can spot in-flight traffic from before a rebalance;
// Forwarded and Stale are metric hooks for the re-routing paths.
type ShardRouter interface {
	OwnerOf(base string) (owner string, ok bool)
	Epoch() uint64
	Forwarded(kind string)
	Stale()
}

// maxShardHops caps forwarding chains: a message re-routed this many
// times is dropped as a logical failure instead of orbiting a fleet
// whose members hold mutually stale tables.
const maxShardHops = 8

// ownsRule reports whether this shell owns rule p: the fleet route
// table decides when it holds the rule's anchor base, and otherwise the
// static Fig. 1 assignment does — the shell hosting the rule's site owns
// the rule.
func (s *Shell) ownsRule(p *rule.Placed) bool {
	if owner, ok := s.shardOwner(p.Anchor); ok {
		return owner == s.id
	}
	_, hosted := s.sites[p.Site]
	return hosted
}

// shardOwner resolves a base through the route table; ok is false in
// static deployments and for bases outside the table.
func (s *Shell) shardOwner(base string) (string, bool) {
	if s.opts.Router == nil {
		return "", false
	}
	return s.opts.Router.OwnerOf(base)
}

// noteStaleEpoch counts an inbound message stamped before the installed
// table — the in-flight tail of a rebalance.
func (s *Shell) noteStaleEpoch(m *transport.Message) {
	if s.opts.Router != nil && m.Epoch != 0 && m.Epoch < s.opts.Router.Epoch() {
		s.opts.Router.Stale()
	}
}

// forwardShard re-routes an inbound message toward the base's current
// owner, restamping it with the local epoch and bumping the hop count.
// kind is "fire" or "trigger" (the forwards metric label).
func (s *Shell) forwardShard(m transport.Message, owner, kind string) {
	hops := 0
	if m.Payload != nil {
		hops, _ = strconv.Atoi(m.Payload["fleet-hops"])
	}
	if hops >= maxShardHops {
		s.reportFailure(cmi.Failure{
			Kind: cmi.FailLogical, Site: s.id, When: s.clock.Now(),
			Op: "forward", Err: fmt.Errorf("%s message dropped after %d forwarding hops (owner %s)", kind, hops, owner),
		}, true)
		return
	}
	if s.ep == nil {
		s.reportFailure(cmi.Failure{
			Kind: cmi.FailLogical, Site: s.id, When: s.clock.Now(),
			Op: "forward", Err: fmt.Errorf("shell %s has no transport to forward %s to %s", s.id, kind, owner),
		}, true)
		return
	}
	// The payload may be shared with the sender's in-process message;
	// clone before stamping the hop count.
	np := make(map[string]string, len(m.Payload)+1)
	for k, v := range m.Payload {
		np[k] = v
	}
	np["fleet-hops"] = strconv.Itoa(hops + 1)
	m.Payload = np
	m.Epoch = s.opts.Router.Epoch()
	s.opts.Router.Forwarded(kind)
	if err := s.ep.Send(owner, m); err != nil {
		s.reportFailure(cmi.Failure{
			Kind: cmi.FailMetric, Site: s.id, When: s.clock.Now(),
			Op: "forward", Err: fmt.Errorf("forwarding %s to %s: %w", kind, owner, err),
		}, true)
	}
}

// forwardTrigger ships an external trigger of the given task kind to the
// base's owner as a "fleet-trigger" message.  The old and new values ride
// in BindingsVal, which the codec writes as tagged values, so they keep
// their kind and bits; the owner replays the trigger through external,
// the path the original shell would have used.
func (s *Shell) forwardTrigger(kind taskKind, site string, item data.ItemName, old, new data.Value, owner string) {
	m := transport.Message{
		Kind: "fleet-trigger",
		Payload: map[string]string{
			"op":   triggerOps[kind],
			"item": item.String(),
		},
		BindingsVal: event.Bindings{"old": old, "new": new},
		Epoch:       s.opts.Router.Epoch(),
	}
	if site != "" {
		m.Payload["site"] = site
	}
	s.opts.Router.Forwarded("trigger")
	if s.ep == nil {
		s.reportFailure(cmi.Failure{
			Kind: cmi.FailLogical, Site: s.id, When: s.clock.Now(),
			Op: "forward", Err: fmt.Errorf("shell %s has no transport to forward trigger for %s to %s", s.id, item, owner),
		}, true)
		return
	}
	if err := s.ep.Send(owner, m); err != nil {
		s.reportFailure(cmi.Failure{
			Kind: cmi.FailMetric, Site: s.id, When: s.clock.Now(),
			Op: "forward", Err: fmt.Errorf("forwarding trigger for %s to %s: %w", item, owner, err),
		}, true)
	}
}

// receiveTrigger handles an inbound "fleet-trigger": if this shell owns
// the base, the trigger replays through external as if it had arrived
// here first; otherwise it is forwarded onward (the sender held a stale
// table).
func (s *Shell) receiveTrigger(m transport.Message) {
	s.noteStaleEpoch(&m)
	item, err := data.ParseItemName(m.Payload["item"])
	if err != nil {
		s.reportFailure(cmi.Failure{
			Kind: cmi.FailLogical, Site: s.id, When: s.clock.Now(),
			Op: "receive", Err: fmt.Errorf("fleet-trigger from %s: %w", m.From, err),
		}, false)
		return
	}
	if owner, ok := s.shardOwner(item.Base); ok && owner != s.id {
		s.forwardShard(m, owner, "trigger")
		return
	}
	op := m.Payload["op"]
	for kind, name := range triggerOps {
		if name != "" && name == op {
			s.external(taskKind(kind), m.Payload["site"], item, m.BindingsVal["old"], m.BindingsVal["new"])
			return
		}
	}
	s.reportFailure(cmi.Failure{
		Kind: cmi.FailLogical, Site: s.id, When: s.clock.Now(),
		Op: "receive", Err: fmt.Errorf("fleet-trigger from %s: unknown op %q", m.From, op),
	}, false)
}

// RefreshOwnership recomputes the owned-rule set and dispatch index
// against the currently installed route table.  The fleet calls it on
// every member right after a rebalance installs the next-epoch table,
// inside the drained + ingress-gated cutover window, so no trigger can
// observe a half-updated rule set.  Periodic (P-LHS) rules keep their
// Start-time owner: their timers were created there and do not migrate
// (a documented v1 limitation — DESIGN.md §10).
func (s *Shell) RefreshOwnership() {
	if s.opts.Router == nil || !s.started {
		return
	}
	var owned []*rule.Placed
	for i := range s.plan.Rules {
		if p := &s.plan.Rules[i]; p.Key.Op != event.OpP && s.ownsRule(p) {
			owned = append(owned, p)
		}
	}
	for _, p := range s.owned {
		if p.Key.Op == event.OpP {
			owned = append(owned, p)
		}
	}
	s.owned = owned
	s.buildDispatchIndex()
}

// AddPeer declares a fleet member this shell can reach that hosts no
// site in the static routing map — sharded fleets address each other
// through the ownership table, but failure propagation and recovery
// notifications still need the membership list.
func (s *Shell) AddPeer(shellID string) {
	s.peerMu.Lock()
	if s.peers == nil {
		s.peers = map[string]bool{}
	}
	s.peers[shellID] = true
	s.peerMu.Unlock()
}

// peerSet is every peer shell reachable for propagation: static routes
// plus declared fleet peers.
func (s *Shell) peerSet() map[string]bool {
	peers := map[string]bool{}
	for _, shellID := range s.routing {
		if shellID != s.id {
			peers[shellID] = true
		}
	}
	s.peerMu.RLock()
	for p := range s.peers {
		if p != s.id {
			peers[p] = true
		}
	}
	s.peerMu.RUnlock()
	return peers
}

// ExportPrivate removes the CM-private items whose base satisfies sel
// and returns them: the handoff of a fleet rebalance.  When durable
// state is enabled the removals are journaled, so a crash-recovered
// shell cannot resurrect state it handed off.
func (s *Shell) ExportPrivate(sel func(base string) bool) data.Interpretation {
	out := data.NewInterpretation()
	s.privMu.Lock()
	defer s.privMu.Unlock()
	for k, v := range s.private {
		name, err := data.ParseItemName(k)
		if err != nil || !sel(name.Base) {
			continue
		}
		if !v.IsNull() {
			out[k] = v
		}
		delete(s.private, k)
		if s.dur != nil {
			s.journalPrivateLocked(k, data.NullValue)
		}
	}
	return out
}

// ImportPrivate installs items another member's ExportPrivate handed
// off.  When durable state is enabled each is journaled, so the moving
// shard's state is in the new owner's log before the epoch cutover makes
// it authoritative.
func (s *Shell) ImportPrivate(items data.Interpretation) {
	s.privMu.Lock()
	defer s.privMu.Unlock()
	for k, v := range items {
		s.private[k] = v
		if s.dur != nil {
			s.journalPrivateLocked(k, v)
		}
	}
}
