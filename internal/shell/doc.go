// Package shell implements the CM-Shell (Figures 1 and 2): a
// general-purpose distributed rule engine configured by a Strategy
// Specification.  Each shell hosts one or more sites (a site without its
// own shell is hosted by a peer, as for Site 3 in Figure 1), owns the
// strategy rules whose left-hand-side events occur at its sites, keeps
// CM-private data items for use in strategies, generates periodic events,
// routes rule firings to the shells owning the right-hand-side sites, and
// propagates interface failures so guarantees can be marked invalid
// (Section 5).
//
// Every event that flows through a shell is recorded to a trace, so a
// deployment can be re-validated against the Appendix A.2 execution
// properties and its guarantees checked after the fact.
//
// # Observability
//
// Shells are instrumented through package obs.  Each shell registers, at
// construction, atomic counter handles labelled with its shell ID —
// cmtk_shell_events_total, cmtk_shell_rule_matches_total,
// cmtk_shell_fires_total{scope=local|remote|received},
// cmtk_shell_remote_fires_dropped_total,
// cmtk_shell_remote_fires_retried_total,
// cmtk_shell_replayed_sends_total,
// cmtk_shell_failures_total{kind=metric|logical} — plus the
// cmtk_shell_fire_latency_seconds histogram (trigger event to RHS
// execution, on the shell clock).  Every rule firing additionally leaves
// structured hop records (matched → dispatched → executed, with outcome)
// in obs.DefaultRing.  Options.Metrics selects the registry; nil means
// the process-wide obs.Default.  cmd/cmshell serves both at -metrics-addr
// under /metrics and /debug/traces.  Delivery() reads back this shell
// instance's remote-delivery counters for programmatic use (the
// registry-backed replacement for the removed Stats plumbing); metric
// names, labels, and the trace schema are catalogued in OBSERVABILITY.md.
package shell
