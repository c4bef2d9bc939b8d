//! Typed resource wait-for graphs: the wedge latch of the transaction
//! fabric's stall forensics.
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
//! A wait graph is a list of *wait edges*: `from` (a held resource) →
//! `holder` (the transaction or packet occupying it) → `to` (the
//! resource it cannot release `from` without). Edges are contributed
//! by the owners of the state — the core engine reports ring transit
//! and escape pipes, the transaction fabric reports window holders and
//! pinned reassemblies — and deduplicated per `(from, to)` pair keeping
//! the smallest holder id as the deterministic representative. The
//! graph's nodes are the edges' endpoints; nothing else is needed to
//! find its cycles ([`cyclic_sccs`]).
//!
//! # When a graph is built
//!
//! Progress has one definition in the tree: the network's stamp,
//! `Network::stalled_for()`, the cycles since a flit last injected,
//! ejected or crossed a bridge while flits were resident. A
//! [`WedgeLatch`] reads it at every transaction-observatory boundary.
//! The first boundary at which it reads [`FREEZE_W`] or more opens a
//! *stall episode* and builds the graph, once. While the stamp stands
//! that high nothing in the fabric moves, so every cycle in the graph
//! is frozen: if there is one, the episode's [`WedgeReport`] names it —
//! the cyclic chain as resource → holder → resource triples, the
//! pinned feeder edges (windows and reassembly buffers waiting *into*
//! the cycle) and the holder transaction/packet ids for exemplar
//! lookup. The first report latches. The episode ends, and the latch
//! re-arms, at the first boundary where the stamp reads below
//! `FREEZE_W` again.
//!
//! # Determinism
//!
//! Graphs are built between engine ticks from settled state (the same
//! argument as the metrics snapshots of DESIGN.md §11), on the
//! observatory's boundaries. Edges are sorted and the SCC pass iterates
//! sorted adjacency, so a report is byte-identical run to run.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// Cycles without progress (`Network::stalled_for`) at which the wedge
/// latch builds the wait graph: four 32-cycle observatory windows, the
/// period every golden and benchmark run samples at.
pub const FREEZE_W: u64 = 128;

/// One blocking resource. Variant order defines the canonical sort
/// order of a graph's nodes (rings, escapes, windows, reassembly).
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

/// Tarjan's strongly-connected-components algorithm over the graph
/// `edges` spans, iterative (explicit stack) and deterministic: nodes
/// are the edges' endpoints, visited in sorted [`ResourceId`] order,
/// and adjacency lists are sorted. Returns each SCC as a sorted member
/// list; single nodes without a self-edge are filtered out (they
/// cannot be cyclic).
pub fn cyclic_sccs(edges: &[WaitEdge]) -> Vec<Vec<ResourceId>> {
    let ids: Vec<ResourceId> = edges
        .iter()
        .flat_map(|e| [e.from, e.to])
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let index_of = |r: &ResourceId| ids.binary_search(r).expect("an edge endpoint");
    let n = ids.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut self_edge = vec![false; n];
    for e in edges {
        let (f, t) = (index_of(&e.from), index_of(&e.to));
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
                    scc.push(ids[w]);
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

/// The deadlock certificate of one stall episode: the cyclic wait in
/// a graph built after [`FREEZE_W`] cycles without progress.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WedgeReport {
    /// Cycle the graph was built at.
    pub cycle: u64,
    /// `Network::stalled_for()` at that cycle: how long nothing had
    /// moved.
    pub stalled_for: u64,
    /// The cyclic chain: wait edges internal to the graph's cyclic
    /// SCCs, sorted — each a `resource → holder → wanted-resource`
    /// triple.
    pub chain: Vec<WaitEdge>,
    /// Feeder edges: waits from outside the cycles into the wedged set
    /// (typically windows and reassembly buffers pinned behind a
    /// cycle), sorted.
    pub pinned: Vec<WaitEdge>,
    /// Holder transaction/packet ids of every chain and feeder edge,
    /// sorted and deduplicated — the keys for span-tree exemplar
    /// lookup.
    pub holders: Vec<u64>,
}

impl WedgeReport {
    /// The report of the wait graph `edges` (any order, duplicates
    /// allowed) built at `cycle`, `stalled_for` cycles after the
    /// network last made progress; `None` when the graph is acyclic.
    pub fn from_edges(cycle: u64, stalled_for: u64, mut edges: Vec<WaitEdge>) -> Option<Self> {
        // Canonical edges: dedup per (from, to) keeping the smallest
        // holder as representative.
        edges.sort_unstable();
        edges.dedup_by(|b, a| a.from == b.from && a.to == b.to);
        let in_cycle: BTreeSet<ResourceId> = cyclic_sccs(&edges).into_iter().flatten().collect();
        if in_cycle.is_empty() {
            return None;
        }
        // Wedged set: cycle members plus reverse reachability
        // (everything transitively waiting into a cycle).
        let mut wedged = in_cycle.clone();
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
        let edges_where = |keep: &dyn Fn(&WaitEdge) -> bool| -> Vec<WaitEdge> {
            edges.iter().filter(|e| keep(e)).copied().collect()
        };
        let chain = edges_where(&|e| in_cycle.contains(&e.from) && in_cycle.contains(&e.to));
        let pinned = edges_where(&|e| !in_cycle.contains(&e.from) && wedged.contains(&e.to));
        let mut holders: Vec<u64> = chain.iter().chain(&pinned).map(|e| e.holder).collect();
        holders.sort_unstable();
        holders.dedup();
        Some(WedgeReport {
            cycle,
            stalled_for,
            chain,
            pinned,
            holders,
        })
    }

    /// Human-readable multi-line rendering.
    pub fn render(&self) -> String {
        let mut out = format!(
            "wedge @ cycle {} (no progress for {} cycles)\n  cycle chain:\n",
            self.cycle, self.stalled_for
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

/// Stall-forensics configuration. It has nothing left to set: the
/// latch reads the network's one progress stamp against [`FREEZE_W`]
/// and keeps one report. The type stays because the benchmark's
/// observed workload passes `WaitGraphConfig::default()` to
/// `TxnFabric::enable_forensics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaitGraphConfig;

/// The wedge latch: judges each observatory boundary on the network's
/// progress stamp and keeps the first wedge it finds (see the module
/// docs).
#[derive(Debug, Clone, Default)]
pub struct WedgeLatch {
    /// Whether the stamp read [`FREEZE_W`] or more at the last
    /// boundary: the current stall episode has been judged.
    in_episode: bool,
    report: Option<WedgeReport>,
}

impl WedgeLatch {
    /// Judge the boundary at `cycle`, `stalled_for` cycles after the
    /// network last made progress. The first boundary of a stall
    /// episode builds the wait graph by calling `edges` and returns its
    /// report if the graph has a cycle; the first such report latches
    /// ([`WedgeLatch::report`]). Every other boundary builds nothing
    /// and returns `None`.
    pub fn judge(
        &mut self,
        cycle: u64,
        stalled_for: u64,
        edges: impl FnOnce() -> Vec<WaitEdge>,
    ) -> Option<WedgeReport> {
        let opens = stalled_for >= FREEZE_W && !self.in_episode;
        self.in_episode = stalled_for >= FREEZE_W;
        if !opens {
            return None;
        }
        let report = WedgeReport::from_edges(cycle, stalled_for, edges())?;
        self.report.get_or_insert_with(|| report.clone());
        Some(report)
    }

    /// The first wedge report, if a wedge latched.
    pub fn report(&self) -> Option<&WedgeReport> {
        self.report.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(r: u16) -> ResourceId {
        ResourceId::Ring { ring: r }
    }

    fn edge(from: ResourceId, to: ResourceId, holder: u64) -> WaitEdge {
        WaitEdge { from, to, holder }
    }

    /// The canonical 3-resource cycle used by the latch tests.
    fn cycle_graph() -> Vec<WaitEdge> {
        vec![
            edge(ring(0), ring(1), 10),
            edge(ring(1), ring(2), 11),
            edge(ring(2), ring(0), 12),
        ]
    }

    /// Edges a boundary that opens no episode must never build.
    fn unbuilt() -> Vec<WaitEdge> {
        unreachable!("graph built outside the first boundary of a stall episode")
    }

    #[test]
    fn tarjan_finds_the_cycle_and_ignores_chains() {
        // 3 → 0 → 1 → 2 → 0: cycle {0,1,2}, 3 is a feeder.
        let edges = vec![
            edge(ring(3), ring(0), 1),
            edge(ring(0), ring(1), 2),
            edge(ring(1), ring(2), 3),
            edge(ring(2), ring(0), 4),
        ];
        assert_eq!(cyclic_sccs(&edges), vec![vec![ring(0), ring(1), ring(2)]]);
    }

    #[test]
    fn self_edge_counts_as_cyclic() {
        let edges = vec![edge(ring(0), ring(0), 7), edge(ring(1), ring(0), 8)];
        assert_eq!(cyclic_sccs(&edges), vec![vec![ring(0)]]);
    }

    #[test]
    fn an_acyclic_graph_is_no_wedge() {
        let chain = vec![edge(ring(0), ring(1), 1), edge(ring(1), ring(2), 2)];
        assert!(cyclic_sccs(&chain).is_empty());
        assert_eq!(WedgeReport::from_edges(128, 128, chain), None);
    }

    #[test]
    fn edges_dedup_to_smallest_holder() {
        let edges = vec![
            edge(ring(0), ring(1), 20),
            edge(ring(0), ring(1), 5),
            edge(ring(1), ring(0), 9),
            edge(ring(0), ring(1), 11),
        ];
        let rep = WedgeReport::from_edges(128, 128, edges).expect("a 2-cycle");
        assert_eq!(
            rep.chain,
            vec![edge(ring(0), ring(1), 5), edge(ring(1), ring(0), 9)]
        );
        assert_eq!(rep.holders, vec![5, 9]);
    }

    #[test]
    fn wedged_set_includes_feeders_and_report_pins_them() {
        let win = ResourceId::Window { node: 9 };
        let rea = ResourceId::Reassembly { node: 5 };
        let mut edges = cycle_graph();
        // window → reassembly → ring 0 (a feeder chain), plus an edge
        // out of the cycle that nothing waits behind.
        edges.push(edge(win, rea, 77));
        edges.push(edge(rea, ring(0), 55));
        edges.push(edge(ring(1), ring(7), 3));
        let rep = WedgeReport::from_edges(320, 200, edges).expect("cycle");
        assert_eq!(rep.chain.len(), 3, "cycle edges only");
        assert_eq!(
            rep.pinned,
            vec![edge(win, rea, 77), edge(rea, ring(0), 55)],
            "both feeder edges pinned"
        );
        assert_eq!(rep.holders, vec![10, 11, 12, 55, 77]);
        let text = rep.render();
        assert!(text.contains("no progress for 200 cycles"), "{text}");
        assert!(text.contains("window:n9 -[77]-> reassembly:n5"), "{text}");
    }

    #[test]
    fn frozen_cycle_latches_after_w_windows() {
        // Frozen since cycle 0, judged every 32 cycles: the boundaries
        // below FREEZE_W build nothing; the one that reaches it builds
        // the graph and latches.
        let mut latch = WedgeLatch::default();
        let w = FREEZE_W / 32;
        for i in 0..w {
            assert_eq!(latch.judge(i * 32, i * 32, unbuilt), None, "boundary {i}");
        }
        let rep = latch
            .judge(FREEZE_W, FREEZE_W, cycle_graph)
            .expect("latched at FREEZE_W");
        assert_eq!((rep.cycle, rep.stalled_for), (FREEZE_W, FREEZE_W));
        assert_eq!(rep.chain.len(), 3);
        assert_eq!(rep.holders, vec![10, 11, 12]);
        assert!(rep.render().contains("ring:r0 -[10]-> ring:r1"));
        assert_eq!(latch.report(), Some(&rep));
    }

    #[test]
    fn transient_cycle_with_progress_never_latches() {
        // The stamp keeps falling back: a cycle that still moves is
        // never even built.
        let mut latch = WedgeLatch::default();
        for i in 0..10u64 {
            assert_eq!(latch.judge(i * 32, (i * 37) % FREEZE_W, unbuilt), None);
        }
        assert!(latch.report().is_none());
    }

    #[test]
    fn a_stall_episode_builds_the_graph_once_and_rearms() {
        let mut latch = WedgeLatch::default();
        // An acyclic stall (say, a device that stopped draining): built
        // once, no wedge, nothing built again while it lasts.
        let acyclic = || vec![edge(ring(0), ring(1), 1)];
        assert_eq!(latch.judge(128, 128, acyclic), None);
        assert_eq!(latch.judge(160, 160, unbuilt), None);
        // Progress ends the episode; the next one builds again.
        assert_eq!(latch.judge(192, 3, unbuilt), None);
        let first = latch.judge(352, 130, cycle_graph).expect("a wedge");
        assert_eq!(latch.judge(384, 162, unbuilt), None);
        // A later episode reports its own cycle; the first stays latched.
        assert_eq!(latch.judge(416, 0, unbuilt), None);
        let two = || vec![edge(ring(4), ring(5), 1), edge(ring(5), ring(4), 2)];
        let second = latch.judge(608, 140, two).expect("a second wedge");
        assert_eq!(second.cycle, 608);
        assert_eq!(latch.report(), Some(&first));
    }

    #[test]
    fn reports_round_trip_through_json() {
        let rep = WedgeReport::from_edges(640, 131, cycle_graph()).expect("cycle");
        let text = serde_json::to_string(&rep).expect("serializes");
        let back: WedgeReport = serde_json::from_str(&text).expect("parses");
        assert_eq!(back, rep);
    }
}
