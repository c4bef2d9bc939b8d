//! Critical-path reduction: from a span tree to a per-phase latency
//! attribution that sums exactly to the completion latency.
//!
//! A transaction's completion is triggered by one packet's reassembly,
//! which was staged when its parent packet finished, and so on back to
//! the packets staged at submit time. Walking [`TxnSpanTree::final_packet`]
//! through the `parent` links yields the transaction's **critical
//! chain** — the dependency path whose last link determined the
//! completion cycle. Each link is delimited by engine timestamps, so it
//! decomposes into contiguous, non-overlapping phases:
//!
//! | phase | cycles | what it is |
//! |---|---|---|
//! | `staging` | staged → enqueued | admission-queue wait (pump backpressure) |
//! | `inject` | enqueued → injected | inject-queue wait at the source (I-tag territory) |
//! | `ring` | hops − recirc | productive ring traversal |
//! | `recirc` | recirc cycles | deflection re-circulation (E-tag territory) |
//! | `bridge` | residence − hops | bridge pipelines, escape buffers, foreign-ring inject and eject-queue dwell |
//!
//! A ring flit advances every cycle, so `hops` is exactly its on-ring
//! cycles and the residue `delivered − injected − hops` is exactly its
//! off-ring (bridge/buffer) time; `recirc` is the engine's own count of
//! cycles between a refused ejection and the eventual successful one.
//! Chain links join without gaps (responses and relays are staged in
//! the same cycle their parent completed), so
//! `sum(phases) == completed_at − issued_at` — the reconciliation the
//! `trace-report` gate checks against the [`TxnRegistry`](crate::TxnRegistry).

use crate::spans::{SpanRole, TxnSpanTree};
use serde::{Deserialize, Serialize};

/// Phase names, in [`PhaseCycles::as_array`] order.
pub const PHASE_NAMES: [&str; 5] = ["staging", "inject", "ring", "recirc", "bridge"];

/// Cycles attributed to each phase of the critical chain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseCycles {
    /// Admission-queue wait: packet staged but flits not yet pumped
    /// into the network's inject queues.
    pub staging: u64,
    /// Source inject-queue wait: flit enqueued but not yet on a ring.
    pub inject: u64,
    /// Productive ring traversal (hops minus re-circulation).
    pub ring: u64,
    /// Deflection re-circulation: ring cycles spent lapping past a
    /// refusing eject point.
    pub recirc: u64,
    /// Off-ring residence: bridge pipelines, escape buffers,
    /// foreign-ring inject queues and eject-queue dwell.
    pub bridge: u64,
}

impl PhaseCycles {
    /// Total cycles across all phases.
    pub fn total(&self) -> u64 {
        self.staging + self.inject + self.ring + self.recirc + self.bridge
    }

    /// Values in [`PHASE_NAMES`] order.
    pub fn as_array(&self) -> [u64; 5] {
        [
            self.staging,
            self.inject,
            self.ring,
            self.recirc,
            self.bridge,
        ]
    }

    /// Accumulate another breakdown into this one.
    pub fn add(&mut self, other: &PhaseCycles) {
        self.staging += other.staging;
        self.inject += other.inject;
        self.ring += other.ring;
        self.recirc += other.recirc;
        self.bridge += other.bridge;
    }
}

/// One link of the critical chain with its phase decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CriticalLink {
    /// Packet id of this link.
    pub packet: u64,
    /// Role the packet played (request / response / relay).
    pub role: SpanRole,
    /// Cycle the link opened (parent completion, or issue for the
    /// first link).
    pub from: u64,
    /// Cycle the link closed (this packet's reassembly completion).
    pub until: u64,
    /// Phase decomposition of the link's cycles.
    pub phases: PhaseCycles,
}

/// A transaction reduced to its longest dependency chain.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CriticalPath {
    /// Transaction id.
    pub txn: u64,
    /// End-to-end completion latency.
    pub total: u64,
    /// Chain links, issue-side first.
    pub links: Vec<CriticalLink>,
    /// Phase totals over the whole chain; `phases.total() == total`
    /// whenever the tree's timestamps are engine-consistent.
    pub phases: PhaseCycles,
}

impl CriticalPath {
    /// Whether the phase decomposition accounts for every cycle of the
    /// completion latency — the reconciliation invariant.
    pub fn reconciles(&self) -> bool {
        self.phases.total() == self.total
    }
}

/// Reduce a finished span tree to its critical chain.
///
/// Walks `final_packet` back through `parent` links, then decomposes
/// each link using its critical flit's timestamps. Malformed trees
/// (dangling parents, cyclic links) terminate the walk instead of
/// panicking: spans are diagnostics and must never kill a run.
pub fn critical_path(tree: &TxnSpanTree) -> CriticalPath {
    let mut chain = Vec::new();
    let mut cursor = Some(tree.final_packet);
    while let Some(id) = cursor {
        let Some(span) = tree.packet(id) else { break };
        cursor = span.parent;
        chain.push(span);
        if chain.len() > tree.packets.len() {
            break; // cycle guard
        }
    }
    chain.reverse();

    let mut links = Vec::with_capacity(chain.len());
    let mut phases = PhaseCycles::default();
    let mut opened = tree.issued_at;
    for span in chain {
        let crit = &span.crit;
        // Any slack between the parent's completion and this packet's
        // staging cycle is admission wait too (there is none for the
        // fabric's same-cycle staging, but the reduction stays total
        // for any well-formed tree).
        let staging = crit.enqueued_at.saturating_sub(opened);
        let inject = crit.injected_at.saturating_sub(crit.enqueued_at);
        let residence = crit.delivered_at.saturating_sub(crit.injected_at);
        let on_ring = u64::from(crit.hops).min(residence);
        let recirc = u64::from(crit.recirc_cycles).min(on_ring);
        let link = CriticalLink {
            packet: span.packet,
            role: span.role,
            from: opened,
            until: span.reassembled_at,
            phases: PhaseCycles {
                staging,
                inject,
                ring: on_ring - recirc,
                recirc,
                bridge: residence - on_ring,
            },
        };
        phases.add(&link.phases);
        opened = span.reassembled_at;
        links.push(link);
    }
    CriticalPath {
        txn: tree.txn,
        total: tree.latency(),
        links,
        phases,
    }
}

/// Aggregated per-phase latency profile over many transactions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyBreakdown {
    /// Transactions aggregated.
    pub txns: u64,
    /// Sum of completion latencies.
    pub total: u64,
    /// Sum of per-phase attributions.
    pub phases: PhaseCycles,
}

impl LatencyBreakdown {
    /// Fold one transaction's critical path into the profile.
    pub fn add(&mut self, path: &CriticalPath) {
        self.txns += 1;
        self.total += path.total;
        self.phases.add(&path.phases);
    }

    /// Build a profile from a batch of trees.
    pub fn of(trees: &[TxnSpanTree]) -> Self {
        let mut out = LatencyBreakdown::default();
        for t in trees {
            out.add(&critical_path(t));
        }
        out
    }

    /// Fraction of the total attributed to the phase at `idx` (in
    /// [`PHASE_NAMES`] order); 0 for an empty profile.
    pub fn share(&self, idx: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.phases.as_array()[idx] as f64 / self.total as f64
    }

    /// Whether every aggregated cycle is attributed to a phase.
    pub fn reconciles(&self) -> bool {
        self.phases.total() == self.total
    }

    /// Mean completion latency.
    pub fn mean_latency(&self) -> f64 {
        if self.txns == 0 {
            0.0
        } else {
            self.total as f64 / self.txns as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::{FlitSpan, PacketSpan, TxnSpanTree};

    /// A two-link tree: request staged at issue (cycle 100), critical
    /// request flit enqueued at 104, injected at 110, delivered at 130
    /// after 15 hops of which 4 were re-circulation; response staged at
    /// 130, completing at 150 with 12 hops, no deflections, 2 cycles
    /// off-ring.
    fn two_link_tree() -> TxnSpanTree {
        let req = PacketSpan {
            packet: 7,
            parent: None,
            role: SpanRole::Request,
            src: 0,
            dst: 5,
            class: 0,
            bytes: 256,
            flits: 5,
            staged_at: 100,
            first_flit_at: 118,
            reassembled_at: 130,
            hops: 60,
            deflections: 6,
            recirc_cycles: 11,
            etag_laps: 1,
            itag_wait: 9,
            bridge_crossings: 5,
            crit: FlitSpan {
                enqueued_at: 104,
                injected_at: 110,
                delivered_at: 130,
                hops: 15,
                deflections: 2,
                recirc_cycles: 4,
                etag_laps: 0,
                itag_wait: 6,
                bridge_crossings: 1,
            },
        };
        let resp = PacketSpan {
            packet: 9,
            parent: Some(7),
            role: SpanRole::Response,
            src: 5,
            dst: 0,
            class: 1,
            bytes: 0,
            flits: 1,
            staged_at: 130,
            first_flit_at: 150,
            reassembled_at: 150,
            hops: 12,
            deflections: 0,
            recirc_cycles: 0,
            etag_laps: 0,
            itag_wait: 2,
            bridge_crossings: 1,
            crit: FlitSpan {
                enqueued_at: 133,
                injected_at: 136,
                delivered_at: 150,
                hops: 12,
                deflections: 0,
                recirc_cycles: 0,
                etag_laps: 0,
                itag_wait: 2,
                bridge_crossings: 1,
            },
        };
        TxnSpanTree {
            txn: 42,
            op: 2,
            src: 0,
            dst: 5,
            bytes: 256,
            issued_at: 100,
            req_done_at: Some(130),
            completed_at: 150,
            window_occupancy: 3,
            final_packet: 9,
            packets: vec![req, resp],
        }
    }

    #[test]
    fn phases_sum_to_completion_latency() {
        let tree = two_link_tree();
        let path = critical_path(&tree);
        assert_eq!(path.total, 50);
        assert_eq!(path.links.len(), 2);
        assert!(path.reconciles(), "{path:?}");

        // Link 1: staged 100, enq 104, inj 110, delivered 130 with 15
        // hops / 4 recirc → 4 staging, 6 inject, 11 ring, 4 recirc,
        // 5 bridge.
        let l = &path.links[0];
        assert_eq!(l.phases.as_array(), [4, 6, 11, 4, 5]);
        assert_eq!((l.from, l.until), (100, 130));
        // Link 2: opened 130, enq 133, inj 136, delivered 150, 12 hops
        // all productive → 3 staging, 3 inject, 12 ring, 0, 2 bridge.
        let l = &path.links[1];
        assert_eq!(l.phases.as_array(), [3, 3, 12, 0, 2]);
        assert_eq!(path.phases.total(), 50);
    }

    #[test]
    fn reduction_survives_malformed_parent_links() {
        let mut tree = two_link_tree();
        // Dangling parent: the walk stops at the dangling link but the
        // response link itself is still attributed.
        tree.packets[1].parent = Some(999);
        let path = critical_path(&tree);
        assert_eq!(path.links.len(), 1);
        assert_eq!(path.links[0].packet, 9);

        // Self-cycle: terminates, does not hang.
        tree.packets[1].parent = Some(9);
        let path = critical_path(&tree);
        assert!(path.links.len() <= tree.packets.len() + 1);
    }

    #[test]
    fn breakdown_aggregates_and_renders() {
        let tree = two_link_tree();
        let mut b = LatencyBreakdown::default();
        b.add(&critical_path(&tree));
        b.add(&critical_path(&tree));
        assert_eq!(b.txns, 2);
        assert_eq!(b.total, 100);
        assert!(b.reconciles());
        assert!((b.mean_latency() - 50.0).abs() < 1e-9);
        assert!((b.share(2) - 46.0 / 100.0).abs() < 1e-9, "ring share");
    }

    #[test]
    fn empty_profile_is_inert() {
        let b = LatencyBreakdown::default();
        assert!(b.reconciles());
        assert_eq!(b.share(0), 0.0);
        assert_eq!(b.mean_latency(), 0.0);
    }
}
