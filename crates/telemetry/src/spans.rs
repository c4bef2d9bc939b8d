//! Causal span trees for the transaction layer.
//!
//! The observatory's [`TxnRegistry`](crate::TxnRegistry) can say *that*
//! a transaction's p99 is bad; this module records *why*. The
//! transaction fabric builds one [`TxnSpanTree`] per finished
//! transaction — a root span from issue to completion, with one
//! [`PacketSpan`] child per packet it staged (requests, responses,
//! broadcast relays), each carrying the full counter set of the flit
//! whose delivery completed that packet's reassembly (the *critical
//! flit*) plus aggregates over all its flits. The tree is enough to
//! attribute **every cycle** of the transaction's life to a named phase
//! (see [`critical_path`](crate::critical_path)); the phase sums
//! reconcile exactly with the completion latency the registry recorded.
//!
//! # Zero-cost off switch
//!
//! The fabric is generic over a [`SpanSink`] the same way the network
//! engine is generic over a [`TraceSink`](crate::TraceSink): every
//! span-bookkeeping site is guarded by `P::ENABLED`, so for
//! [`NullSpanSink`] (`ENABLED = false`) monomorphization deletes the
//! bookkeeping *and* the branches. A fabric built with the default
//! sink compiles to the PR 8 transaction loop, bit for bit.
//!
//! # Determinism
//!
//! The fabric mutates its state between network ticks: staged flits
//! are pumped in ascending endpoint order and deliveries drained in
//! ascending endpoint order. Span trees are emitted from that same
//! path, so the span stream — and the [`TailExemplars`] reservoir
//! derived from it — is byte-identical run to run.

use crate::last_n::LastN;
use serde::{Deserialize, Serialize};

/// Human-readable names for [`TxnSpanTree::op`], in index order.
/// The transaction layer maps its `TxnKind` onto these indices so the
/// telemetry crate stays independent of `noc-txn`.
pub const SPAN_OP_NAMES: [&str; 6] = [
    "read",
    "write",
    "write_np",
    "atomic",
    "broadcast",
    "message",
];

/// Role a packet plays inside its transaction's dependency chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpanRole {
    /// Source → destination packet carrying the request (or the posted
    /// payload).
    Request,
    /// Destination → source packet carrying the ack / read data /
    /// atomic result.
    Response,
    /// Broadcast forward staged by a relay node after it finished
    /// reassembling its parent packet.
    Relay,
}

impl SpanRole {
    /// Stable label for rendering.
    pub fn name(self) -> &'static str {
        match self {
            SpanRole::Request => "request",
            SpanRole::Response => "response",
            SpanRole::Relay => "relay",
        }
    }
}

/// Full observability record of one flit, as captured at delivery.
///
/// The fabric fills this from the delivered
/// [`Flit`](../noc_core/struct.Flit.html) of interest — all counters
/// are the network engine's own per-flit bookkeeping, so nothing here
/// is sampled or approximate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct FlitSpan {
    /// Cycle the flit entered its source inject queue.
    pub enqueued_at: u64,
    /// Cycle the flit first won a ring slot.
    pub injected_at: u64,
    /// Cycle the transaction layer drained the flit from its eject
    /// queue.
    pub delivered_at: u64,
    /// Ring hops travelled (a ring flit advances every cycle, so this
    /// is exactly its cycles spent on rings).
    pub hops: u32,
    /// Times the flit was deflected past a refusing eject point.
    pub deflections: u32,
    /// Ring cycles spent re-circulating between a refused ejection and
    /// the eventual successful one — the exact deflection penalty,
    /// a subset of `hops`.
    pub recirc_cycles: u32,
    /// Extra laps flown after an E-tag reservation was already placed.
    pub etag_laps: u32,
    /// Cycles spent starving at inject-queue heads (I-tag wait).
    pub itag_wait: u32,
    /// Bridge traversals (ring changes).
    pub bridge_crossings: u32,
}

/// One packet's span: staged → reassembled, with flit aggregates and
/// the critical (reassembly-completing) flit's full record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PacketSpan {
    /// Packet id (allocation order at the transaction layer).
    pub packet: u64,
    /// The packet whose reassembly completion caused this packet to be
    /// staged: the request packet for a response, the relay's inbound
    /// packet for a broadcast forward. `None` for packets staged
    /// directly at submit time.
    pub parent: Option<u64>,
    /// Role in the transaction's dependency chain.
    pub role: SpanRole,
    /// Source node id.
    pub src: u32,
    /// Destination node id.
    pub dst: u32,
    /// Flit class index of the packet's data flits.
    pub class: u8,
    /// Payload bytes carried.
    pub bytes: u32,
    /// Flits in the packet (1 header + data flits).
    pub flits: u32,
    /// Cycle the packet was staged (entered the admission queue).
    pub staged_at: u64,
    /// Cycle the first flit of the packet was drained at the
    /// destination (reassembly opened).
    pub first_flit_at: u64,
    /// Cycle the last flit arrived and reassembly completed.
    pub reassembled_at: u64,
    /// Sum of ring hops over all the packet's flits.
    pub hops: u64,
    /// Sum of deflections over all the packet's flits.
    pub deflections: u64,
    /// Sum of re-circulation cycles over all the packet's flits.
    pub recirc_cycles: u64,
    /// Sum of extra E-tag laps over all the packet's flits.
    pub etag_laps: u64,
    /// Sum of I-tag wait cycles over all the packet's flits.
    pub itag_wait: u64,
    /// Sum of bridge traversals over all the packet's flits.
    pub bridge_crossings: u64,
    /// The critical flit: the one whose delivery completed reassembly.
    pub crit: FlitSpan,
}

/// The finished causal span tree of one transaction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TxnSpanTree {
    /// Transaction id.
    pub txn: u64,
    /// Operation index into [`SPAN_OP_NAMES`]. (Named `op` so the
    /// field cannot collide with the postmortem bundle's `"kind"`
    /// line tag.)
    pub op: u8,
    /// Submitting node id.
    pub src: u32,
    /// Destination node id (for broadcasts, the root's own id).
    pub dst: u32,
    /// Payload bytes of the transaction.
    pub bytes: u32,
    /// Cycle the transaction was admitted (window slot granted, request
    /// packets staged).
    pub issued_at: u64,
    /// Cycle the request side finished reassembling at the destination
    /// (responses staged). `None` for broadcasts, which have no
    /// request/response split.
    pub req_done_at: Option<u64>,
    /// Cycle the transaction completed.
    pub completed_at: u64,
    /// Non-posted window slots the submitting endpoint already had
    /// occupied when this transaction was admitted — the queueing
    /// pressure the root span formed under.
    pub window_occupancy: u64,
    /// The packet whose reassembly completion finished the transaction;
    /// the critical-path walk starts here and follows `parent` links.
    pub final_packet: u64,
    /// Child spans, in packet-id (staging) order.
    pub packets: Vec<PacketSpan>,
}

impl TxnSpanTree {
    /// End-to-end completion latency in cycles.
    pub fn latency(&self) -> u64 {
        self.completed_at - self.issued_at
    }

    /// Kind name for rendering.
    pub fn op_name(&self) -> &'static str {
        SPAN_OP_NAMES.get(self.op as usize).copied().unwrap_or("?")
    }

    /// Look up a child span by packet id.
    pub fn packet(&self, id: u64) -> Option<&PacketSpan> {
        self.packets.iter().find(|p| p.packet == id)
    }
}

/// Destination for finished span trees. The transaction fabric is
/// generic over one of these; [`SpanSink::ENABLED`] is the zero-cost
/// off switch, exactly like [`TraceSink::ENABLED`](crate::TraceSink).
pub trait SpanSink {
    /// Compile-time switch read at every span-bookkeeping site. Leave
    /// `true` for real sinks; [`NullSpanSink`] overrides it to `false`.
    const ENABLED: bool = true;

    /// Accept one finished transaction's span tree.
    fn record(&mut self, tree: TxnSpanTree);

    /// The K slowest transactions' full trees, if this sink keeps them.
    /// Postmortem bundles attach these; the default keeps none.
    fn exemplars(&self) -> &[TxnSpanTree] {
        &[]
    }

    /// Flush buffered output (end of run). Default: nothing.
    fn flush(&mut self) {}
}

/// The off switch: drops everything, compiled to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSpanSink;

impl SpanSink for NullSpanSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _tree: TxnSpanTree) {}
}

/// Deterministic reservoir of the K slowest transactions' span trees.
///
/// Admission is a pure function of the tree stream: a tree enters if
/// its latency beats the current K-th slowest, ordered by
/// (latency descending, transaction id ascending) so ties resolve
/// identically on every run. Because the fabric emits trees in a
/// deterministic order, the reservoir contents are byte-identical run
/// to run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TailExemplars {
    k: usize,
    slowest: Vec<TxnSpanTree>,
    offered: u64,
}

impl TailExemplars {
    /// A reservoir keeping the `k` slowest trees.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` — an empty reservoir is `NullSpanSink`'s job.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "exemplar reservoir must keep at least one tree");
        TailExemplars {
            k,
            slowest: Vec::with_capacity(k + 1),
            offered: 0,
        }
    }

    /// Order: slowest first, ties broken by ascending transaction id.
    fn ranks_before(a: &TxnSpanTree, b: &TxnSpanTree) -> bool {
        (a.latency(), std::cmp::Reverse(a.txn)) > (b.latency(), std::cmp::Reverse(b.txn))
    }

    /// Offer a tree; it is cloned in only if it ranks in the top K.
    pub fn offer(&mut self, tree: &TxnSpanTree) {
        self.offered += 1;
        if self.slowest.len() == self.k {
            let worst = self.slowest.last().expect("k > 0");
            if !Self::ranks_before(tree, worst) {
                return;
            }
        }
        let pos = self
            .slowest
            .partition_point(|kept| Self::ranks_before(kept, tree));
        self.slowest.insert(pos, tree.clone());
        self.slowest.truncate(self.k);
    }

    /// Retained trees, slowest first.
    pub fn trees(&self) -> &[TxnSpanTree] {
        &self.slowest
    }

    /// Trees offered since creation (admitted or not).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Reservoir capacity.
    pub fn k(&self) -> usize {
        self.k
    }
}

/// The workhorse sink: a bounded buffer of the most recent trees plus
/// a [`TailExemplars`] reservoir of the slowest ones.
///
/// Recent trees feed ad-hoc inspection and the Perfetto export; the
/// exemplars feed postmortem bundles and tail attribution. Totals
/// (`recorded`) never drop, so reconciliation against
/// [`TxnRegistry::completed_total`](crate::TxnRegistry::completed_total)
/// stays exact even after the recent buffer wraps.
#[derive(Debug, Clone)]
pub struct SpanCollector {
    recent: LastN<TxnSpanTree>,
    exemplars: TailExemplars,
}

impl SpanCollector {
    /// A collector retaining the `capacity` most recent trees and the
    /// `k` slowest.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `k` is zero.
    pub fn new(capacity: usize, k: usize) -> Self {
        assert!(capacity > 0, "span collector capacity must be positive");
        SpanCollector {
            recent: LastN::new(capacity),
            exemplars: TailExemplars::new(k),
        }
    }

    /// Most recent trees, oldest first.
    pub fn recent(&self) -> impl Iterator<Item = &TxnSpanTree> {
        self.recent.iter()
    }

    /// The tail reservoir.
    pub fn tail(&self) -> &TailExemplars {
        &self.exemplars
    }

    /// Trees recorded since creation (never drops): every tree is
    /// offered to the reservoir.
    pub fn recorded(&self) -> u64 {
        self.exemplars.offered()
    }

    /// Recent trees evicted to stay within capacity.
    pub fn dropped(&self) -> u64 {
        self.recent.dropped()
    }
}

impl SpanSink for SpanCollector {
    fn record(&mut self, tree: TxnSpanTree) {
        self.exemplars.offer(&tree);
        self.recent.push(tree);
    }

    fn exemplars(&self) -> &[TxnSpanTree] {
        self.exemplars.trees()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn tree(txn: u64, issued: u64, completed: u64) -> TxnSpanTree {
        TxnSpanTree {
            txn,
            op: 0,
            src: 0,
            dst: 1,
            bytes: 64,
            issued_at: issued,
            req_done_at: None,
            completed_at: completed,
            window_occupancy: 0,
            final_packet: 0,
            packets: Vec::new(),
        }
    }

    #[test]
    fn null_span_sink_is_disabled() {
        fn enabled<P: SpanSink>(_: &P) -> bool {
            P::ENABLED
        }
        assert!(!enabled(&NullSpanSink));
        assert!(enabled(&SpanCollector::new(1, 1)));
        let mut s = NullSpanSink;
        s.record(tree(0, 0, 10));
        s.flush();
        assert!(s.exemplars().is_empty());
    }

    #[test]
    fn exemplars_keep_the_k_slowest_with_deterministic_ties() {
        let mut r = TailExemplars::new(2);
        r.offer(&tree(1, 0, 10));
        r.offer(&tree(2, 0, 30));
        r.offer(&tree(3, 0, 20));
        r.offer(&tree(4, 0, 5));
        let ids: Vec<u64> = r.trees().iter().map(|t| t.txn).collect();
        assert_eq!(ids, vec![2, 3], "slowest first");
        assert_eq!(r.offered(), 4);

        // Equal latencies: the lower transaction id wins and order is
        // stable regardless of arrival order.
        let mut a = TailExemplars::new(2);
        let mut b = TailExemplars::new(2);
        for t in [tree(7, 0, 50), tree(5, 0, 50), tree(6, 0, 50)] {
            a.offer(&t);
        }
        for t in [tree(6, 0, 50), tree(5, 0, 50), tree(7, 0, 50)] {
            b.offer(&t);
        }
        let ids: Vec<u64> = a.trees().iter().map(|t| t.txn).collect();
        assert_eq!(ids, vec![5, 6]);
        assert_eq!(a.trees(), b.trees(), "arrival order must not matter");
    }

    #[test]
    fn collector_bounds_recent_but_not_totals() {
        let mut c = SpanCollector::new(2, 1);
        for i in 0..4 {
            c.record(tree(i, 0, 10 * (i + 1)));
        }
        assert_eq!(c.recorded(), 4);
        assert_eq!(c.dropped(), 2);
        let recent: Vec<u64> = c.recent().map(|t| t.txn).collect();
        assert_eq!(recent, vec![2, 3]);
        assert_eq!(c.exemplars().len(), 1);
        assert_eq!(c.exemplars()[0].txn, 3, "slowest survives eviction");
    }

    #[test]
    fn jsonl_round_trips() {
        let trees = vec![tree(0, 0, 10), tree(1, 5, 50)];
        let text = crate::jsonl(&trees);
        assert_eq!(text.lines().count(), 2);
        for (line, orig) in text.lines().zip(&trees) {
            let back: TxnSpanTree = serde_json::from_str(line).expect("valid JSON");
            assert_eq!(&back, orig);
        }
    }
}
