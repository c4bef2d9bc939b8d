//! Per-flow accounting: deterministic Space-Saving top-K tables keyed
//! by `(src, dst)` node pair.
//!
//! Deflection-routed rings fail in flow-shaped ways: a handful of
//! src→dst pairs concentrate the deflections, E-tag laps and I-tag
//! waits while everything else flows normally. A [`FlowTable`] tracks
//! the heaviest pairs with bounded memory using the Space-Saving
//! algorithm (Metwally et al.): a fixed number of entries, and when a
//! new pair arrives with the table full, the entry with the smallest
//! weight is *recycled* — its counts carry over as the new entry's
//! `overcount` error bound, which keeps the classic guarantee that any
//! pair with true weight above `total/k` is present in the table.
//!
//! Determinism is load-bearing here (golden tests pin the engine's
//! snapshot stream byte for byte), so every tie is broken
//! structurally: entries live in a `Vec` in insertion order, lookups
//! scan that `Vec`, and the eviction scan takes the *first*
//! minimal-weight entry. Sorting for presentation uses a total order
//! on `(weight desc, src asc, dst asc)`, packed into one integer key
//! ([`FlowRecord::rank_key`]).

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Accumulated statistics of one src→dst flow.
///
/// `weight = delivered + deflections` is the Space-Saving frequency
/// estimate: it grows both when the flow makes progress and when it
/// churns, so a wedged flow (deflecting forever, delivering nothing)
/// still rises to the top of the table — exactly the flow a postmortem
/// needs to name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowRecord {
    /// Source node id.
    pub src: u32,
    /// Destination node id.
    pub dst: u32,
    /// Flits delivered to the destination device.
    pub delivered: u64,
    /// Sum of end-to-end latencies of the delivered flits (cycles).
    pub latency_sum: u64,
    /// Deflections charged to this flow (at deflection time, not
    /// delivery time, so stalled flows accumulate them too).
    pub deflections: u64,
    /// Extra laps flown after an E-tag reservation was already placed.
    pub etag_laps: u64,
    /// I-tag wait cycles of delivered flits (starving-head cycles).
    pub itag_waits: u64,
    /// Space-Saving error bound: counts inherited from the entry this
    /// one recycled. The flow's true weight is within
    /// `[weight - overcount, weight]`.
    pub overcount: u64,
}

impl FlowRecord {
    /// The Space-Saving frequency estimate this table ranks by.
    pub fn weight(&self) -> u64 {
        self.delivered + self.deflections
    }

    /// Mean end-to-end latency of the delivered flits, `0.0` when
    /// nothing was delivered (guards the wedged-flow case).
    pub fn mean_latency(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.delivered as f64
        }
    }

    /// Presentation order as one integer, ascending: weight
    /// descending, then `(src, dst)` ascending. A total order on the
    /// flow key, so any sort by it — stable or not — is deterministic.
    pub fn rank_key(&self) -> u128 {
        (u128::from(u64::MAX - self.weight()) << 64)
            | (u128::from(self.src) << 32)
            | u128::from(self.dst)
    }
}

/// A bounded Space-Saving table of the heaviest src→dst flows.
///
/// There is deliberately no hash index: the table sits on the engine's
/// per-tick flush path where most arrivals are *misses* (far more
/// distinct flows exist than `capacity` slots), and every miss needs
/// the minimum-weight entry anyway. A single linear pass over the
/// (small, contiguous) entry array answers both questions — match or
/// first minimum — cheaper than any lookup structure plus a separate
/// eviction scan, and with nothing whose iteration order could leak
/// into results.
#[derive(Debug, Clone, Default)]
pub struct FlowTable {
    /// Entries in insertion order (never reordered; eviction recycles
    /// in place). Bounded by `capacity`.
    entries: Vec<FlowRecord>,
    capacity: usize,
    /// Positions in `entries`, in the order the last
    /// [`FlowTable::ranked`] ranked them. Weights move little between
    /// sampling windows, so this is close to sorted for the next call:
    /// on `torus4_txn_observed` it holds 5.9 inversions on average
    /// against 57 for insertion order (16 flows; 21 % of windows keep
    /// the order exactly), which is what an insertion sort pays for.
    rank_order: Vec<u32>,
}

/// Accumulated per-flow counters for one batch of observations,
/// applied in a single table lookup via [`FlowTable::apply`]. Batching
/// a tick's events per flow is what keeps the accounting hot path
/// cheap under deflection storms (hundreds of events, few flows).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowDelta {
    /// Flits delivered.
    pub delivered: u64,
    /// Summed end-to-end latency of the delivered flits (cycles).
    pub latency_sum: u64,
    /// Summed I-tag wait cycles of the delivered flits.
    pub itag_waits: u64,
    /// Deflections charged.
    pub deflections: u64,
    /// Deflections that defeated an existing E-tag reservation.
    pub etag_laps: u64,
}

impl FlowDelta {
    /// Fold another delta into this one (field-wise sum).
    pub fn merge(&mut self, other: &FlowDelta) {
        self.delivered += other.delivered;
        self.latency_sum += other.latency_sum;
        self.itag_waits += other.itag_waits;
        self.deflections += other.deflections;
        self.etag_laps += other.etag_laps;
    }
}

impl FlowTable {
    /// A table tracking at most `capacity` flows (0 disables tracking:
    /// every apply call is a no-op and the table stays empty).
    pub fn new(capacity: usize) -> Self {
        FlowTable {
            entries: Vec::with_capacity(capacity),
            capacity,
            rank_order: Vec::with_capacity(capacity),
        }
    }

    /// Maximum number of flows retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of flows currently tracked.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table tracks no flows.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Apply a batch of observations for `src → dst` in one lookup:
    /// the entry (and any eviction) is resolved once up front, then
    /// every counter is summed.
    pub fn apply(&mut self, src: u32, dst: u32, delta: &FlowDelta) {
        if self.capacity == 0 {
            return;
        }
        let slot = self.slot_for(src, dst);
        let e = &mut self.entries[slot];
        e.delivered += delta.delivered;
        e.latency_sum += delta.latency_sum;
        e.itag_waits += delta.itag_waits;
        e.deflections += delta.deflections;
        e.etag_laps += delta.etag_laps;
    }

    /// Find or create the entry for `(src, dst)`, evicting the first
    /// minimal-weight entry when the table is full (Space-Saving).
    ///
    /// One pass answers both questions the algorithm can ask: a strict
    /// `<` comparison keeps the *first* minimal-weight entry, so
    /// eviction stays deterministic — no dependence on hash order or
    /// arrival history.
    fn slot_for(&mut self, src: u32, dst: u32) -> usize {
        let mut victim = 0usize;
        let mut victim_weight = u64::MAX;
        for (i, e) in self.entries.iter().enumerate() {
            if e.src == src && e.dst == dst {
                return i;
            }
            let w = e.weight();
            if w < victim_weight {
                victim_weight = w;
                victim = i;
            }
        }
        if self.entries.len() < self.capacity {
            let i = self.entries.len();
            self.entries.push(FlowRecord {
                src,
                dst,
                ..FlowRecord::default()
            });
            return i;
        }
        let old = self.entries[victim];
        // Space-Saving recycle: the newcomer inherits the victim's
        // weight as its own (delivered side, arbitrarily but
        // consistently) and records it as the error bound.
        self.entries[victim] = FlowRecord {
            src,
            dst,
            delivered: old.weight(),
            overcount: old.weight() + old.overcount,
            ..FlowRecord::default()
        };
        victim
    }

    /// The tracked flows ranked for presentation, written over `out`:
    /// weight descending, `(src, dst)` ascending. Re-sorts the order it
    /// ranked last time, so a sampling window pays for what moved, not
    /// for a fresh sort, and reuses `out`'s buffer, so ranking into last
    /// window's row allocates nothing once it has held a full table.
    pub fn ranked(&mut self, out: &mut Vec<FlowRecord>) {
        let entries = &self.entries;
        let order = &mut self.rank_order;
        order.extend(order.len() as u32..entries.len() as u32);
        // `rank_key` is a total order on the (unique) flow keys, so this
        // stable sort returns what any sort by it would.
        order.sort_by_key(|&i| entries[i as usize].rank_key());
        out.clear();
        out.extend(order.iter().map(|&i| entries[i as usize]));
    }

    /// The raw entries in insertion order (deterministic, unranked).
    pub fn entries(&self) -> &[FlowRecord] {
        &self.entries
    }
}

/// Merge per-ring flow tables (given in a fixed order) into one ranked
/// top-`k` list. Entries for the same `(src, dst)` pair are summed —
/// a pair can appear in several tables when its deflections and its
/// delivery happen on different rings.
pub fn merge_ranked(tables: &[&FlowTable], k: usize) -> Vec<FlowRecord> {
    let mut by_key: HashMap<(u32, u32), FlowRecord> = HashMap::new();
    for t in tables {
        for e in t.entries() {
            let m = by_key.entry((e.src, e.dst)).or_insert(FlowRecord {
                src: e.src,
                dst: e.dst,
                ..FlowRecord::default()
            });
            m.delivered += e.delivered;
            m.latency_sum += e.latency_sum;
            m.deflections += e.deflections;
            m.etag_laps += e.etag_laps;
            m.itag_waits += e.itag_waits;
            m.overcount += e.overcount;
        }
    }
    let mut v: Vec<FlowRecord> = by_key.into_values().collect();
    v.sort_unstable_by_key(FlowRecord::rank_key);
    v.truncate(k);
    v
}

/// Render ranked flows as a fixed-width ASCII table. `name_of` maps a
/// node id to a display name (pass `|id| id.to_string()` when no
/// topology is at hand). All ratios are guarded against empty flows.
pub fn flow_table_ascii(flows: &[FlowRecord], name_of: impl Fn(u32) -> String) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    writeln!(
        out,
        "{:<24} {:>9} {:>10} {:>9} {:>9} {:>9} {:>9}",
        "flow (src -> dst)", "delivered", "mean-lat", "deflect", "e-laps", "i-wait", "±err"
    )
    .expect("writing to a String cannot fail");
    for f in flows {
        writeln!(
            out,
            "{:<24} {:>9} {:>10.1} {:>9} {:>9} {:>9} {:>9}",
            format!("{} -> {}", name_of(f.src), name_of(f.dst)),
            f.delivered,
            f.mean_latency(),
            f.deflections,
            f.etag_laps,
            f.itag_waits,
            f.overcount,
        )
        .expect("writing to a String cannot fail");
    }
    if flows.is_empty() {
        out.push_str("(no flows observed)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranked(t: &mut FlowTable) -> Vec<FlowRecord> {
        let mut out = Vec::new();
        t.ranked(&mut out);
        out
    }

    /// `n` deliveries of `src → dst`, each 10 cycles with one I-tag wait.
    fn deliver(t: &mut FlowTable, src: u32, dst: u32, n: u64) {
        let delta = FlowDelta {
            delivered: n,
            latency_sum: 10 * n,
            itag_waits: n,
            ..FlowDelta::default()
        };
        t.apply(src, dst, &delta);
    }

    /// One deflection of `src → dst`; an extra E-tag lap if `extra_lap`.
    fn deflect(t: &mut FlowTable, src: u32, dst: u32, extra_lap: bool) {
        let delta = FlowDelta {
            deflections: 1,
            etag_laps: u64::from(extra_lap),
            ..FlowDelta::default()
        };
        t.apply(src, dst, &delta);
    }

    #[test]
    fn accumulates_per_flow() {
        let mut t = FlowTable::new(4);
        deliver(&mut t, 0, 1, 3);
        deflect(&mut t, 0, 1, false);
        deflect(&mut t, 0, 1, true);
        let r = ranked(&mut t);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].delivered, 3);
        assert_eq!(r[0].latency_sum, 30);
        assert_eq!(r[0].deflections, 2);
        assert_eq!(r[0].etag_laps, 1);
        assert_eq!(r[0].itag_waits, 3);
        assert_eq!(r[0].weight(), 5);
        assert!((r[0].mean_latency() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn zero_capacity_disables() {
        let mut t = FlowTable::new(0);
        deliver(&mut t, 0, 1, 100);
        assert!(t.is_empty());
        assert!(ranked(&mut t).is_empty());
    }

    #[test]
    fn eviction_recycles_minimum_and_tracks_overcount() {
        let mut t = FlowTable::new(2);
        deliver(&mut t, 0, 1, 5);
        deliver(&mut t, 2, 3, 1);
        // Table full; a new pair recycles (2,3) — the minimum.
        deliver(&mut t, 4, 5, 1);
        assert_eq!(t.len(), 2);
        let r = ranked(&mut t);
        assert_eq!((r[0].src, r[0].dst), (0, 1));
        assert_eq!((r[1].src, r[1].dst), (4, 5));
        // Inherited weight 1 + its own delivery, error bound 1.
        assert_eq!(r[1].weight(), 2);
        assert_eq!(r[1].overcount, 1);
    }

    #[test]
    fn heavy_flow_survives_churn() {
        // Space-Saving guarantee: a flow holding > total/k of the
        // weight cannot be evicted by a stream of one-off flows.
        let mut t = FlowTable::new(8);
        deliver(&mut t, 0, 1, 1000);
        for i in 0..500u32 {
            deliver(&mut t, 10 + i, 2, 1);
        }
        let r = ranked(&mut t);
        assert_eq!((r[0].src, r[0].dst), (0, 1));
        assert!(r[0].weight() >= 1000);
    }

    #[test]
    fn eviction_tie_breaks_by_insertion_order() {
        let mut t = FlowTable::new(2);
        deliver(&mut t, 0, 1, 1);
        deliver(&mut t, 2, 3, 1);
        // Both weigh 1: the first-inserted (0,1) must be recycled.
        deliver(&mut t, 4, 5, 1);
        let keys: Vec<(u32, u32)> = t.entries().iter().map(|e| (e.src, e.dst)).collect();
        assert_eq!(keys, vec![(4, 5), (2, 3)]);
    }

    #[test]
    fn rank_key_orders_weight_descending_then_src_dst() {
        let mut recs = Vec::new();
        for (i, (w, src, dst)) in [
            (3, 1, 2),
            (3, 1, 1),
            (3, 0, 9),
            (0, 0, 0),
            (u64::MAX, u32::MAX, u32::MAX),
            (7, u32::MAX, 0),
            (7, 2, u32::MAX),
        ]
        .into_iter()
        .enumerate()
        {
            recs.push(FlowRecord {
                src,
                dst,
                delivered: w / 2,
                deflections: w - w / 2,
                latency_sum: i as u64,
                ..FlowRecord::default()
            });
        }
        let mut by_key = recs.clone();
        by_key.sort_unstable_by_key(FlowRecord::rank_key);
        recs.sort_by(|a, b| {
            b.weight()
                .cmp(&a.weight())
                .then(a.src.cmp(&b.src))
                .then(a.dst.cmp(&b.dst))
        });
        assert_eq!(by_key, recs);
    }

    #[test]
    fn reranking_after_weights_move_matches_a_fresh_sort() {
        let mut t = FlowTable::new(3);
        let fresh = |t: &FlowTable| {
            let mut v = t.entries.clone();
            v.sort_unstable_by_key(FlowRecord::rank_key);
            v
        };
        deliver(&mut t, 0, 1, 3);
        deliver(&mut t, 2, 3, 2);
        assert_eq!(ranked(&mut t), fresh(&t));
        // Reverse the order, then add a third flow and recycle one.
        deliver(&mut t, 2, 3, 4);
        assert_eq!(ranked(&mut t), fresh(&t));
        deliver(&mut t, 4, 5, 9);
        deliver(&mut t, 6, 7, 1);
        let r = ranked(&mut t);
        assert_eq!(r, fresh(&t));
        let keys: Vec<(u32, u32)> = r.iter().map(|e| (e.src, e.dst)).collect();
        assert_eq!(keys, vec![(4, 5), (2, 3), (6, 7)]);
    }

    #[test]
    fn merge_sums_across_tables_and_ranks() {
        let mut a = FlowTable::new(4);
        let mut b = FlowTable::new(4);
        deliver(&mut a, 0, 1, 2);
        deflect(&mut a, 7, 8, false);
        deliver(&mut b, 0, 1, 3);
        deliver(&mut b, 5, 6, 4);
        let merged = merge_ranked(&[&a, &b], 2);
        assert_eq!(merged.len(), 2);
        assert_eq!((merged[0].src, merged[0].dst), (0, 1));
        assert_eq!(merged[0].delivered, 5);
        assert_eq!((merged[1].src, merged[1].dst), (5, 6));
    }

    #[test]
    fn ascii_table_renders_and_guards_empty_flows() {
        let mut t = FlowTable::new(4);
        deflect(&mut t, 0, 1, false);
        let s = flow_table_ascii(&ranked(&mut t), |id| format!("n{id}"));
        assert!(s.contains("n0 -> n1"), "{s}");
        assert!(s.contains("0.0"), "wedged flow mean latency: {s}");
        let empty = flow_table_ascii(&[], |id| id.to_string());
        assert!(empty.contains("no flows"), "{empty}");
    }
}
