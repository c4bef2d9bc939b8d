//! Typed resource wait-for graphs: online stall forensics for the
//! transaction fabric.
//!
//! # The model
//!
//! Four resource classes can block progress in the layered fabric:
//!
//! * **ring slots** — a deflection ring holds at most `stations ×
//!   lanes` flits; a full ring admits nothing until a resident flit
//!   ejects locally (bridge injection consumes free slots, only
//!   ejection creates them);
//! * **bridge escape buffers** — the bounded pipe (`tx` + peer
//!   backlog) plus the DRM escape `reserved` slots of one bridge side;
//! * **in-flight windows** — a device's bounded non-posted window,
//!   held from submit until the response reassembles back;
//! * **reassembly buffers** — the per-endpoint partial-packet store, a
//!   pinned entry per packet awaiting its missing sequence numbers.
//!
//! A [`WaitGraphSample`] is a snapshot of those resources as typed
//! nodes plus *wait edges*: `from` (a held resource) → `holder` (the
//! transaction or packet occupying it) → `to` (the resource it cannot
//! release `from` without). Edges are contributed by the owners of the
//! state — the core engine reports ring transit and escape pipes, the
//! transaction fabric reports window holders and pinned reassemblies —
//! and deduplicated per `(from, to)` pair keeping the smallest holder
//! id as the deterministic representative.
//!
//! # Verdicts
//!
//! A deterministic Tarjan SCC pass classifies each sample:
//!
//! * [`WaitVerdict::Progressing`] — the graph is acyclic;
//! * [`WaitVerdict::TransientCycle`] — a cycle exists, but at least
//!   one member resource still shows progress (cycles are *normal*
//!   under load: a saturated torus loop waits on itself while flits
//!   drain through it);
//! * [`WaitVerdict::Wedged`] — some cycle's members **all** show zero
//!   progress-counter delta over [`FREEZE_WINDOWS`] consecutive
//!   samples. Frozen occupancy alone is not enough — a full ring under
//!   heavy load keeps constant occupancy while moving thousands of
//!   flits — so freezing is judged on monotone progress counters
//!   (injections, deliveries, crossings, reassembled flits, window
//!   completions).
//!
//! On the first `Wedged` verdict the tracker freezes a
//! [`WedgeReport`]: the cyclic chain as resource → holder → resource
//! triples, the pinned feeder edges (windows and reassembly buffers
//! waiting *into* the cycle), per-resource occupancy history, and the
//! holder transaction/packet ids for exemplar lookup.
//!
//! # Determinism
//!
//! Samples are built between engine ticks from settled state (the same
//! argument as the metrics snapshots of DESIGN.md §11), on the
//! observatory's sample schedule. Nodes and edges are sorted, the SCC
//! pass iterates sorted adjacency, and history is keyed by `BTreeMap`
//! — the sampled stream is byte-identical run to run.

use crate::last_n::{LastN, LastNSlice};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One blocking resource. Variant order defines the canonical sort
/// order of nodes in a sample (rings, escapes, windows, reassembly).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ResourceId {
    /// The slot pool of one deflection ring.
    Ring {
        /// Ring id.
        ring: u16,
    },
    /// One bridge side's transfer resource: the bounded `tx` pipe plus
    /// its DRM escape buffers, carrying flits *out of* that side's
    /// ring.
    Escape {
        /// Bridge id.
        bridge: u32,
        /// Side (0 or 1).
        side: u8,
    },
    /// One device's non-posted in-flight window.
    Window {
        /// Device node id.
        node: u32,
    },
    /// One endpoint's reassembly buffer.
    Reassembly {
        /// Device node id.
        node: u32,
    },
}

impl ResourceId {
    /// Index of the resource's class (ring 0, escape 1, window 2,
    /// reassembly 3) — the axis of the per-class blocked gauges.
    pub fn class(&self) -> usize {
        match self {
            ResourceId::Ring { .. } => 0,
            ResourceId::Escape { .. } => 1,
            ResourceId::Window { .. } => 2,
            ResourceId::Reassembly { .. } => 3,
        }
    }
}

impl fmt::Display for ResourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceId::Ring { ring } => write!(f, "ring:r{ring}"),
            ResourceId::Escape { bridge, side } => write!(f, "escape:b{bridge}.s{side}"),
            ResourceId::Window { node } => write!(f, "window:n{node}"),
            ResourceId::Reassembly { node } => write!(f, "reassembly:n{node}"),
        }
    }
}

/// One sampled resource: occupancy, capacity and a monotone progress
/// counter (what moved through it since construction).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WaitNode {
    /// The resource.
    pub id: ResourceId,
    /// Units currently held (flits for rings/escapes, transactions for
    /// windows, open packets for reassembly buffers).
    pub occupancy: u64,
    /// Capacity in the same units; `0` means unbounded.
    pub capacity: u64,
    /// Monotone progress counter. A resource whose occupancy is
    /// non-zero while this counter stops advancing is *frozen*.
    pub progress: u64,
}

/// One wait edge: the holder of `from` cannot release it until `to`
/// frees up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct WaitEdge {
    /// The held resource.
    pub from: ResourceId,
    /// The wanted resource.
    pub to: ResourceId,
    /// Representative holder: the smallest transaction or packet id
    /// occupying `from` while waiting on `to`.
    pub holder: u64,
}

/// Classification of one sampled wait graph.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum WaitVerdict {
    /// Acyclic: every chain of waits bottoms out in a free resource.
    #[default]
    Progressing,
    /// Cyclic, but at least one cycle member still makes progress.
    TransientCycle,
    /// A cycle whose members all froze for the configured number of
    /// consecutive samples: a deadlock certificate.
    Wedged,
}

impl fmt::Display for WaitVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            WaitVerdict::Progressing => "progressing",
            WaitVerdict::TransientCycle => "transient-cycle",
            WaitVerdict::Wedged => "wedged",
        })
    }
}

/// One committed wait-graph sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WaitGraphSample {
    /// Cycle the sample was stamped at.
    pub cycle: u64,
    /// Resources, sorted by [`ResourceId`].
    pub nodes: Vec<WaitNode>,
    /// Wait edges, sorted, deduplicated per `(from, to)`.
    pub edges: Vec<WaitEdge>,
    /// The verdict for this sample.
    pub verdict: WaitVerdict,
    /// Members of cyclic SCCs (sorted). Empty when progressing.
    pub cyclic: Vec<ResourceId>,
    /// The wedged set: members of frozen cycles plus every resource
    /// that transitively waits into one (sorted). Empty unless the
    /// verdict is [`WaitVerdict::Wedged`].
    pub wedged: Vec<ResourceId>,
}

/// Aggregate gauges of one sample — the Prometheus/JSONL surface and
/// the diagnostics stall summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WaitStats {
    /// Sample cycle.
    pub cycle: u64,
    /// Verdict.
    pub verdict: WaitVerdict,
    /// Resources with at least one out-edge (blocked holders), per
    /// class, indexed by [`ResourceId::class`] (ring, escape, window,
    /// reassembly).
    pub blocked: [u64; 4],
    /// Cycles since the oldest currently-frozen resource last made
    /// progress.
    pub oldest_frozen: u64,
    /// Number of cyclic SCCs in the sample.
    pub cyclic_sccs: u64,
}

/// Tarjan's strongly-connected-components algorithm over the sorted
/// node list, iterative (explicit stack) and deterministic: nodes are
/// visited in sorted [`ResourceId`] order and adjacency lists are
/// sorted. Returns each SCC as a sorted member list; single nodes
/// without a self-edge are filtered out (they cannot be cyclic).
pub fn cyclic_sccs(nodes: &[WaitNode], edges: &[WaitEdge]) -> Vec<Vec<ResourceId>> {
    let index_of: BTreeMap<ResourceId, usize> =
        nodes.iter().enumerate().map(|(i, n)| (n.id, i)).collect();
    let n = nodes.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut self_edge = vec![false; n];
    for e in edges {
        let (Some(&f), Some(&t)) = (index_of.get(&e.from), index_of.get(&e.to)) else {
            continue; // edge to a resource not sampled as a node
        };
        if f == t {
            self_edge[f] = true;
        }
        adj[f].push(t);
    }
    for a in &mut adj {
        a.sort_unstable();
        a.dedup();
    }

    const UNVISITED: usize = usize::MAX;
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut out: Vec<Vec<ResourceId>> = Vec::new();
    // (node, next adjacency offset) — the explicit DFS frame.
    let mut frames: Vec<(usize, usize)> = Vec::new();

    for start in 0..n {
        if index[start] != UNVISITED {
            continue;
        }
        frames.push((start, 0));
        while let Some(&mut (v, ref mut ai)) = frames.last_mut() {
            if *ai == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = adj[v].get(*ai) {
                *ai += 1;
                if index[w] == UNVISITED {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            // v is exhausted: close its frame.
            frames.pop();
            if let Some(&mut (p, _)) = frames.last_mut() {
                low[p] = low[p].min(low[v]);
            }
            if low[v] == index[v] {
                let mut scc = Vec::new();
                loop {
                    let w = stack.pop().expect("tarjan stack underflow");
                    on_stack[w] = false;
                    scc.push(nodes[w].id);
                    if w == v {
                        break;
                    }
                }
                if scc.len() > 1 || self_edge[v] {
                    scc.sort_unstable();
                    out.push(scc);
                }
            }
        }
    }
    // Canonical order: by smallest member.
    out.sort();
    out
}

/// The frozen deadlock certificate emitted on the first
/// [`WaitVerdict::Wedged`] sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WedgeReport {
    /// Cycle the wedge latched at.
    pub cycle: u64,
    /// Consecutive frozen samples required before latching.
    pub freeze_windows: u32,
    /// The cyclic chain: wait edges internal to the frozen SCCs,
    /// sorted — each a `resource → holder → wanted-resource` triple.
    pub chain: Vec<WaitEdge>,
    /// Feeder edges: waits from outside the frozen cycles into the
    /// wedged set (typically windows and reassembly buffers pinned
    /// behind the cycle), sorted.
    pub pinned: Vec<WaitEdge>,
    /// Recent occupancy history (oldest first) per wedged-set
    /// resource, sorted by resource.
    pub occupancy: Vec<(ResourceId, Vec<u64>)>,
    /// Holder transaction/packet ids of every wedged-set edge, sorted
    /// and deduplicated — the keys for span-tree exemplar lookup.
    pub holders: Vec<u64>,
}

impl WedgeReport {
    /// Human-readable multi-line rendering.
    pub fn render(&self) -> String {
        let mut out = format!(
            "wedge @ cycle {} (frozen {} samples)\n  cycle chain:\n",
            self.cycle, self.freeze_windows
        );
        for e in &self.chain {
            out.push_str(&format!("    {} -[{}]-> {}\n", e.from, e.holder, e.to));
        }
        out.push_str("  pinned behind it:\n");
        for e in &self.pinned {
            out.push_str(&format!("    {} -[{}]-> {}\n", e.from, e.holder, e.to));
        }
        out
    }
}

/// Occupancy-history depth kept per resource for the wedge report.
const HISTORY: usize = 8;

/// Consecutive samples a cycle's members must all be frozen
/// (non-empty, zero progress delta) before the verdict escalates to
/// [`WaitVerdict::Wedged`].
pub const FREEZE_WINDOWS: u32 = 4;

/// Tracker configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitGraphConfig {
    /// Bound on retained samples and on retained gauge rows
    /// ([`WaitGraphTracker::stats`]), oldest evicted first. Samples are
    /// export-only and of the rows only the newest is read — the
    /// verdict runs on per-resource streaks and the wedge report keeps
    /// its own `HISTORY` rows — so the default keeps 32, the flight
    /// recorder's default snapshot window.
    pub max_samples: usize,
}

impl Default for WaitGraphConfig {
    fn default() -> Self {
        WaitGraphConfig { max_samples: 32 }
    }
}

/// Per-resource progress memory.
#[derive(Debug, Clone)]
struct ResourceTrack {
    last_progress: u64,
    /// Consecutive samples with occupancy > 0 and no progress.
    frozen_streak: u32,
    /// Cycle the current frozen streak started at.
    frozen_since: u64,
    /// Recent occupancies, oldest first, bounded by config.
    occupancy: LastN<u64>,
}

/// Online wait-graph classifier: ingest one built graph per
/// observatory sample, maintain per-resource freeze streaks, emit the
/// verdict stream and latch a [`WedgeReport`] on the first wedge.
#[derive(Debug, Clone)]
pub struct WaitGraphTracker {
    cfg: WaitGraphConfig,
    /// Per-resource streak state, sorted by id (merged against the
    /// sorted node list in one linear pass per sample).
    tracks: Vec<(ResourceId, ResourceTrack)>,
    samples: LastN<WaitGraphSample>,
    /// One gauge row per retained sample.
    stats: LastNSlice<WaitStats>,
    report: Option<WedgeReport>,
}

impl WaitGraphTracker {
    /// A tracker with the given config.
    pub fn new(cfg: WaitGraphConfig) -> Self {
        assert!(cfg.max_samples > 0, "max_samples must be positive");
        WaitGraphTracker {
            cfg,
            tracks: Vec::new(),
            samples: LastN::new(cfg.max_samples),
            stats: LastNSlice::new(cfg.max_samples),
            report: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &WaitGraphConfig {
        &self.cfg
    }

    /// Ingest one raw graph (`nodes` sorted by id) stamped at `cycle`:
    /// update freeze streaks, classify, retain the sample and return a
    /// reference to it. Edge construction is deferred: `edges_fn`
    /// (edges in any order) is only invoked once some ring or escape
    /// resource has been frozen for [`FREEZE_WINDOWS`] samples.
    /// Every wait cycle in this system passes through a ring or escape
    /// node (nothing waits *on* a window, and a reassembly buffer
    /// never waits on another one), and a wedge verdict requires every
    /// cycle member — so in particular that ring or escape — to carry
    /// a streak of at least `FREEZE_WINDOWS`. A sample where no
    /// ring/escape has reached the threshold therefore cannot latch;
    /// it is committed as [`WaitVerdict::Progressing`] with no edges,
    /// skipping the expensive packet-placement census and SCC pass.
    /// Streaks depend only on nodes, so the latch cycle is the one a
    /// full classification of every sample would give; the trade is
    /// that transient cycles among still-progressing resources go
    /// unreported until something actually approaches the wedge
    /// threshold — which is when they matter.
    pub fn ingest_lazy(
        &mut self,
        cycle: u64,
        nodes: Vec<WaitNode>,
        edges_fn: impl FnOnce() -> Vec<WaitEdge>,
    ) -> &WaitGraphSample {
        let (escalate, oldest_frozen) = self.update_tracks(cycle, &nodes);
        if escalate {
            let edges = edges_fn();
            return self.classify(cycle, nodes, edges, oldest_frozen);
        }
        let sample = WaitGraphSample {
            cycle,
            nodes,
            edges: Vec::new(),
            verdict: WaitVerdict::Progressing,
            cyclic: Vec::new(),
            wedged: Vec::new(),
        };
        let stats = WaitStats {
            cycle,
            verdict: WaitVerdict::Progressing,
            blocked: [0; 4],
            oldest_frozen,
            cyclic_sccs: 0,
        };
        self.push_sample(sample, stats)
    }

    /// Update per-resource freeze streaks from the sampled progress
    /// counters. Returns whether any ring or escape resource has been
    /// frozen for [`FREEZE_WINDOWS`] samples (the escalation trigger)
    /// and the age of the oldest freeze. `tracks` is kept
    /// sorted by [`ResourceId`] and merged against the (sorted) node
    /// list in one linear pass.
    fn update_tracks(&mut self, cycle: u64, nodes: &[WaitNode]) -> (bool, u64) {
        debug_assert!(nodes.windows(2).all(|w| w[0].id < w[1].id), "nodes sorted");
        let mut escalate = false;
        let mut oldest = 0u64;
        let mut ti = 0usize;
        for n in nodes {
            while ti < self.tracks.len() && self.tracks[ti].0 < n.id {
                ti += 1;
            }
            if ti >= self.tracks.len() || self.tracks[ti].0 != n.id {
                let track = ResourceTrack {
                    last_progress: 0,
                    frozen_streak: 0,
                    frozen_since: 0,
                    occupancy: LastN::new(HISTORY),
                };
                self.tracks.insert(ti, (n.id, track));
            }
            let t = &mut self.tracks[ti].1;
            if n.occupancy > 0 && n.progress == t.last_progress && !t.occupancy.is_empty() {
                if t.frozen_streak == 0 {
                    t.frozen_since = cycle;
                }
                t.frozen_streak += 1;
            } else {
                t.frozen_streak = 0;
                t.frozen_since = cycle;
            }
            t.last_progress = n.progress;
            t.occupancy.push(n.occupancy);
            if t.frozen_streak > 0 {
                oldest = oldest.max(cycle.saturating_sub(t.frozen_since));
                if t.frozen_streak >= FREEZE_WINDOWS
                    && matches!(n.id, ResourceId::Ring { .. } | ResourceId::Escape { .. })
                {
                    escalate = true;
                }
            }
            ti += 1;
        }
        (escalate, oldest)
    }

    /// The track for `id`, if the resource has ever been sampled.
    fn track(&self, id: &ResourceId) -> Option<&ResourceTrack> {
        self.tracks
            .binary_search_by(|(r, _)| r.cmp(id))
            .ok()
            .map(|i| &self.tracks[i].1)
    }

    /// Full classification: canonicalize edges, run the SCC pass,
    /// derive the verdict and gauges, latch the report on the first
    /// wedge, and commit the sample.
    fn classify(
        &mut self,
        cycle: u64,
        nodes: Vec<WaitNode>,
        mut edges: Vec<WaitEdge>,
        oldest_frozen: u64,
    ) -> &WaitGraphSample {
        // Canonical edges: dedup per (from, to) keeping the smallest
        // holder as representative.
        edges.sort_unstable();
        edges.dedup_by(|b, a| a.from == b.from && a.to == b.to);

        let sccs = cyclic_sccs(&nodes, &edges);
        let cyclic: Vec<ResourceId> = {
            let mut v: Vec<ResourceId> = sccs.iter().flatten().copied().collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let frozen_sccs: Vec<&Vec<ResourceId>> = sccs
            .iter()
            .filter(|scc| {
                scc.iter().all(|r| {
                    self.track(r)
                        .is_some_and(|t| t.frozen_streak >= FREEZE_WINDOWS)
                })
            })
            .collect();

        let (verdict, wedged) = if !frozen_sccs.is_empty() {
            // Wedged set: frozen-cycle members plus reverse reachability
            // (everything transitively waiting into a frozen cycle).
            let mut wedged: BTreeSet<ResourceId> =
                frozen_sccs.iter().flat_map(|s| s.iter()).copied().collect();
            loop {
                let before = wedged.len();
                for e in &edges {
                    if wedged.contains(&e.to) {
                        wedged.insert(e.from);
                    }
                }
                if wedged.len() == before {
                    break;
                }
            }
            (WaitVerdict::Wedged, wedged.into_iter().collect())
        } else if !cyclic.is_empty() {
            (WaitVerdict::TransientCycle, Vec::new())
        } else {
            (WaitVerdict::Progressing, Vec::new())
        };

        // Blocked holders per class: edges are sorted, so distinct
        // `from` resources appear as runs — no set needed.
        let mut blocked = [0u64; 4];
        let mut prev_from: Option<ResourceId> = None;
        for e in &edges {
            if prev_from != Some(e.from) {
                blocked[e.from.class()] += 1;
                prev_from = Some(e.from);
            }
        }
        let stats = WaitStats {
            cycle,
            verdict,
            blocked,
            oldest_frozen,
            cyclic_sccs: sccs.len() as u64,
        };

        let sample = WaitGraphSample {
            cycle,
            nodes,
            edges,
            verdict,
            cyclic,
            wedged,
        };
        if verdict == WaitVerdict::Wedged && self.report.is_none() {
            self.report = Some(self.freeze_report(&sample, &frozen_sccs));
        }
        self.push_sample(sample, stats)
    }

    fn push_sample(&mut self, sample: WaitGraphSample, stats: WaitStats) -> &WaitGraphSample {
        self.stats.push(stats);
        self.samples.push(sample);
        self.samples.last().expect("just pushed")
    }

    fn freeze_report(
        &self,
        sample: &WaitGraphSample,
        frozen_sccs: &[&Vec<ResourceId>],
    ) -> WedgeReport {
        let in_cycle: BTreeSet<ResourceId> =
            frozen_sccs.iter().flat_map(|s| s.iter()).copied().collect();
        let wedged: BTreeSet<ResourceId> = sample.wedged.iter().copied().collect();
        let chain: Vec<WaitEdge> = sample
            .edges
            .iter()
            .filter(|e| in_cycle.contains(&e.from) && in_cycle.contains(&e.to))
            .copied()
            .collect();
        let pinned: Vec<WaitEdge> = sample
            .edges
            .iter()
            .filter(|e| !in_cycle.contains(&e.from) && wedged.contains(&e.to))
            .copied()
            .collect();
        let occupancy: Vec<(ResourceId, Vec<u64>)> = wedged
            .iter()
            .map(|r| {
                let hist = self
                    .track(r)
                    .map(|t| t.occupancy.iter().copied().collect())
                    .unwrap_or_default();
                (*r, hist)
            })
            .collect();
        let mut holders: Vec<u64> = chain
            .iter()
            .chain(pinned.iter())
            .map(|e| e.holder)
            .collect();
        holders.sort_unstable();
        holders.dedup();
        WedgeReport {
            cycle: sample.cycle,
            freeze_windows: FREEZE_WINDOWS,
            chain,
            pinned,
            occupancy,
            holders,
        }
    }

    /// Retained samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &WaitGraphSample> {
        self.samples.iter()
    }

    /// The most recent sample.
    pub fn last(&self) -> Option<&WaitGraphSample> {
        self.samples.last()
    }

    /// Gauge rows of the retained samples, oldest first: one row per
    /// ingest, the newest [`WaitGraphConfig::max_samples`] of them.
    pub fn stats(&self) -> &[WaitStats] {
        self.stats.as_slice()
    }

    /// Whether a wedge has latched.
    pub fn latched(&self) -> bool {
        self.report.is_some()
    }

    /// The frozen report, if a wedge latched.
    pub fn report(&self) -> Option<&WedgeReport> {
        self.report.as_ref()
    }
}

/// Serialize samples as one JSON object per line — the export twin of
/// [`snapshots_jsonl`](crate::export::snapshots_jsonl).
pub fn wait_graphs_jsonl<'a>(samples: impl IntoIterator<Item = &'a WaitGraphSample>) -> String {
    let mut out = String::new();
    for s in samples {
        out.push_str(&serde_json::to_string(s).expect("samples serialize"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(id: ResourceId, occ: u64, progress: u64) -> WaitNode {
        WaitNode {
            id,
            occupancy: occ,
            capacity: 8,
            progress,
        }
    }

    fn ring(r: u16) -> ResourceId {
        ResourceId::Ring { ring: r }
    }

    fn edge(from: ResourceId, to: ResourceId, holder: u64) -> WaitEdge {
        WaitEdge { from, to, holder }
    }

    /// The canonical 3-resource cycle used by the latch tests.
    fn cycle_graph(progress: u64) -> (Vec<WaitNode>, Vec<WaitEdge>) {
        let nodes = vec![
            node(ring(0), 4, progress),
            node(ring(1), 4, progress),
            node(ring(2), 4, progress),
        ];
        let edges = vec![
            edge(ring(0), ring(1), 10),
            edge(ring(1), ring(2), 11),
            edge(ring(2), ring(0), 12),
        ];
        (nodes, edges)
    }

    #[test]
    fn tarjan_finds_the_cycle_and_ignores_chains() {
        let nodes = vec![
            node(ring(0), 1, 0),
            node(ring(1), 1, 0),
            node(ring(2), 1, 0),
            node(ring(3), 1, 0),
        ];
        // 3 → 0 → 1 → 2 → 0: cycle {0,1,2}, 3 is a feeder.
        let edges = vec![
            edge(ring(3), ring(0), 1),
            edge(ring(0), ring(1), 2),
            edge(ring(1), ring(2), 3),
            edge(ring(2), ring(0), 4),
        ];
        let sccs = cyclic_sccs(&nodes, &edges);
        assert_eq!(sccs, vec![vec![ring(0), ring(1), ring(2)]]);
    }

    #[test]
    fn self_edge_counts_as_cyclic() {
        let nodes = vec![node(ring(0), 1, 0), node(ring(1), 1, 0)];
        let edges = vec![edge(ring(0), ring(0), 7)];
        assert_eq!(cyclic_sccs(&nodes, &edges), vec![vec![ring(0)]]);
    }

    /// Edges a sample before escalation must never build.
    fn unbuilt() -> Vec<WaitEdge> {
        unreachable!("edges built before any ring froze for FREEZE_WINDOWS samples")
    }

    /// Ingest `nodes` unchanged for `FREEZE_WINDOWS` samples: one that
    /// starts each history, then `FREEZE_WINDOWS - 1` frozen ones. A
    /// next sample with the same progress counters escalates.
    fn freeze(tr: &mut WaitGraphTracker, nodes: &[WaitNode]) {
        for i in 0..u64::from(FREEZE_WINDOWS) {
            let s = tr.ingest_lazy(i * 32, nodes.to_vec(), unbuilt);
            assert_eq!(s.verdict, WaitVerdict::Progressing);
        }
    }

    #[test]
    fn frozen_cycle_latches_after_w_windows() {
        let mut tr = WaitGraphTracker::new(WaitGraphConfig::default());
        let w = u64::from(FREEZE_WINDOWS);
        // Sample 0 establishes history (no streak yet), then the
        // progress counter stops dead; no edges are built until the
        // streak reaches FREEZE_WINDOWS.
        for i in 0..w + 2 {
            let (nodes, edges) = cycle_graph(42); // progress constant
            if i < w {
                let s = tr.ingest_lazy(i * 32, nodes, unbuilt);
                assert_eq!(s.verdict, WaitVerdict::Progressing, "sample {i}");
                assert!(s.edges.is_empty());
                assert!(!tr.latched(), "sample {i} latched early");
            } else {
                let s = tr.ingest_lazy(i * 32, nodes, || edges);
                assert_eq!(s.verdict, WaitVerdict::Wedged, "sample {i} failed to latch");
            }
        }
        assert!(tr.latched());
        let rep = tr.report().expect("latched");
        assert_eq!(rep.cycle, w * 32, "latched on the first escalated sample");
        assert_eq!(rep.freeze_windows, FREEZE_WINDOWS);
        assert_eq!(rep.chain.len(), 3);
        assert_eq!(rep.holders, vec![10, 11, 12]);
        assert!(rep.render().contains("ring:r0 -[10]-> ring:r1"));
    }

    #[test]
    fn transient_cycle_with_progress_never_latches() {
        let mut tr = WaitGraphTracker::new(WaitGraphConfig::default());
        for i in 0..10u64 {
            // Progress advances every sample: the cycle is live, so it
            // never escalates to a classification.
            let (nodes, _) = cycle_graph(100 + i);
            let s = tr.ingest_lazy(i * 32, nodes, unbuilt);
            assert_eq!(s.verdict, WaitVerdict::Progressing);
        }
        assert!(!tr.latched());
        assert!(tr.report().is_none());
    }

    #[test]
    fn one_live_member_keeps_the_cycle_transient() {
        let mut tr = WaitGraphTracker::new(WaitGraphConfig::default());
        for i in 0..10u64 {
            let (mut nodes, edges) = cycle_graph(42);
            nodes[1].progress = 42 + i; // ring 1 still moves
            let s = tr.ingest_lazy(i * 32, nodes, || edges);
            // Rings 0 and 2 escalate the sample once frozen for
            // FREEZE_WINDOWS; ring 1 keeps the cycle live.
            let want = if i < u64::from(FREEZE_WINDOWS) {
                WaitVerdict::Progressing
            } else {
                WaitVerdict::TransientCycle
            };
            assert_eq!(s.verdict, want, "sample {i}");
        }
        assert!(!tr.latched());
    }

    #[test]
    fn wedged_set_includes_feeders_and_report_pins_them() {
        let mut tr = WaitGraphTracker::new(WaitGraphConfig::default());
        let win = ResourceId::Window { node: 9 };
        let rea = ResourceId::Reassembly { node: 5 };
        let w = u64::from(FREEZE_WINDOWS);
        for i in 0..w + 2 {
            let (nodes, mut edges) = cycle_graph(42);
            let mut all = vec![node(win, 2, 7), node(rea, 1, 3)];
            all.extend(nodes);
            all.sort_by_key(|n| n.id);
            // window → reassembly → ring 0 (a feeder chain).
            edges.push(edge(win, rea, 77));
            edges.push(edge(rea, ring(0), 55));
            let s = tr.ingest_lazy(i * 32, all, || edges);
            if i >= w {
                assert_eq!(s.verdict, WaitVerdict::Wedged);
                assert!(s.wedged.contains(&win), "window reached into the wedge");
                assert!(s.wedged.contains(&rea));
            }
        }
        let rep = tr.report().expect("latched");
        assert_eq!(rep.chain.len(), 3, "cycle edges only");
        assert_eq!(rep.pinned.len(), 2, "both feeder edges pinned");
        assert!(rep.holders.contains(&77) && rep.holders.contains(&55));
        let occ_ids: Vec<ResourceId> = rep.occupancy.iter().map(|(r, _)| *r).collect();
        assert!(occ_ids.contains(&win) && occ_ids.contains(&rea));
    }

    #[test]
    fn occupancy_freeze_without_progress_freeze_is_not_a_wedge() {
        // A full ring moving traffic: occupancy constant, progress
        // advancing. Must never escalate, let alone latch.
        let mut tr = WaitGraphTracker::new(WaitGraphConfig::default());
        for i in 0..8u64 {
            let (mut nodes, _) = cycle_graph(0);
            for n in &mut nodes {
                n.occupancy = 8; // pinned at capacity
                n.progress = i * 100; // but flits flow through
            }
            let s = tr.ingest_lazy(i * 32, nodes, unbuilt);
            assert_eq!(s.verdict, WaitVerdict::Progressing);
        }
        assert!(!tr.latched());
    }

    #[test]
    fn edges_dedup_to_smallest_holder() {
        let mut tr = WaitGraphTracker::new(WaitGraphConfig::default());
        let nodes = vec![node(ring(0), 1, 0), node(ring(1), 1, 0)];
        freeze(&mut tr, &nodes);
        let edges = vec![
            edge(ring(0), ring(1), 20),
            edge(ring(0), ring(1), 5),
            edge(ring(0), ring(1), 11),
        ];
        let s = tr.ingest_lazy(1 << 10, nodes, || edges);
        assert_eq!(s.edges.len(), 1);
        assert_eq!(s.edges[0].holder, 5);
    }

    #[test]
    fn samples_round_trip_through_jsonl() {
        let mut tr = WaitGraphTracker::new(WaitGraphConfig::default());
        let (nodes, edges) = cycle_graph(1);
        freeze(&mut tr, &nodes);
        tr.ingest_lazy(1 << 10, nodes, || edges);
        let jsonl = wait_graphs_jsonl(tr.samples());
        let back: Vec<WaitGraphSample> = jsonl
            .lines()
            .map(|line| serde_json::from_str(line).expect("parses"))
            .collect();
        assert_eq!(back.len(), FREEZE_WINDOWS as usize + 1);
        assert_eq!(
            back.iter().collect::<Vec<_>>(),
            tr.samples().collect::<Vec<_>>()
        );
        assert_eq!(back.last().expect("escalated").verdict, WaitVerdict::Wedged);
    }

    #[test]
    fn stats_count_blocked_per_class() {
        let mut tr = WaitGraphTracker::new(WaitGraphConfig::default());
        let win = ResourceId::Window { node: 1 };
        let mut nodes = vec![node(ring(0), 1, 0), node(ring(1), 1, 0), node(win, 1, 0)];
        nodes.sort_by_key(|n| n.id);
        freeze(&mut tr, &nodes);
        let edges = vec![edge(ring(0), ring(1), 1), edge(win, ring(0), 2)];
        tr.ingest_lazy(1 << 10, nodes, || edges);
        let st = tr.stats().last().expect("one row");
        assert_eq!(st.blocked[0], 1, "one ring blocked");
        assert_eq!(st.blocked[2], 1, "one window blocked");
        assert_eq!(st.cyclic_sccs, 0);
    }

    #[test]
    fn stats_rows_are_bounded_like_the_samples() {
        let mut tr = WaitGraphTracker::new(WaitGraphConfig { max_samples: 3 });
        for cycle in 0..10 {
            let (nodes, edges) = cycle_graph(1);
            tr.ingest_lazy(cycle * 32, nodes, || edges);
        }
        let rows: Vec<u64> = tr.stats().iter().map(|s| s.cycle).collect();
        let samples: Vec<u64> = tr.samples().map(|s| s.cycle).collect();
        assert_eq!(rows, vec![224, 256, 288]);
        assert_eq!(rows, samples);
    }

    #[test]
    #[should_panic(expected = "max_samples must be positive")]
    fn zero_max_samples_is_rejected() {
        WaitGraphTracker::new(WaitGraphConfig { max_samples: 0 });
    }
}
