// Package transport carries messages between CM-Shells.  Two base
// implementations are provided: an in-process Bus whose delivery is
// driven by the toolkit clock (deterministic under a virtual clock, with
// configurable per-link latency), and a TCP mesh built on package wire.
// Both preserve FIFO order per (sender, receiver) pair — the in-order
// delivery assumption that Appendix A.2 property 7 formalizes and that
// the Section 4.2.3 guarantee proofs were found to require.
//
// Two wrappers compose over any Network.  Reliable adds per-link
// sequencing, a bounded outbox with ack-driven retransmission and
// exponential backoff, receiver-side dedup, and in-order replay after an
// outage, earning the paper's metric-failure classification for link
// outages (Section 5).  Flaky is the fault injector: seeded message
// drop, duplication, extra delay, and directed partitions, so failure
// scenarios replay deterministically.
//
// # Observability
//
// The reliability layer and the fault injector publish counters through
// package obs (nil Metrics in their options means obs.Default).  Per
// peer link: cmtk_transport_sends_total, cmtk_transport_retries_total,
// cmtk_transport_acked_total, cmtk_transport_replayed_total,
// cmtk_transport_outbox_dropped_total{reason=overflow},
// cmtk_transport_dups_dropped_total, cmtk_transport_reorder_held_total,
// and the cmtk_transport_outbox_depth gauge.  Flaky counts injected
// faults in cmtk_flaky_faults_total{kind=drop|duplicate|delay|partition}.
// All cells are resolved when a link first appears and updated with
// single atomic operations.  OBSERVABILITY.md catalogues the full set.
package transport
