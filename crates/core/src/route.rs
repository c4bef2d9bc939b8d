//! Route computation.
//!
//! Routing in the multi-ring NoC is two-level, mirroring §4.1/§4.3:
//!
//! 1. **Ring graph**: which bridge to take next, precomputed by BFS over
//!    the graph whose vertices are rings and whose edges are bridges
//!    (fewest ring changes; deterministic tie-break on bridge id).
//! 2. **On-ring**: travel to the exit station (either the destination's
//!    own station or the chosen bridge endpoint's station) by the
//!    shortest direction — the cross station's "ring selection".

use crate::ids::{Direction, NodeId, RingId, RingKind};
use crate::topology::Topology;

/// Where a flit on a given ring should leave the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// Station at which to eject.
    pub station: u16,
    /// The agent (device or bridge endpoint) to eject into.
    pub target: NodeId,
}

/// Precomputed next-hop table: for every (ring, destination node) pair,
/// the station and agent to eject into on that ring.
///
/// Stored as one dense ring-major array of exit targets
/// (`ring * stride + node`, four bytes each) plus every node's station,
/// so the `exit` lookup in the tick hot path is two indexed loads from
/// tables a third the size of an `Option<Hop>` grid — on the 8×8 torus
/// 132 KB instead of 393 KB.
#[derive(Debug, Clone)]
pub struct RouteTable {
    /// Exit target's node id at `ring.index() * stride + node.index()`,
    /// [`UNREACHABLE`] when there is none.
    next: Vec<u32>,
    /// Row stride of `next` (= node count at build time).
    stride: usize,
    /// Station of every node, by node id: the other half of a [`Hop`].
    station: Vec<u16>,
    /// Bridge-count distance between rings (`u32::MAX` = unreachable).
    ring_dist: Vec<Vec<u32>>,
}

/// `RouteTable::next` entry for "no route".
const UNREACHABLE: u32 = u32::MAX;

impl RouteTable {
    /// Build the table for a validated topology.
    pub fn build(topo: &Topology) -> Self {
        let nrings = topo.rings().len();
        let nodes = topo.nodes();

        // Ring adjacency via bridges (sorted for determinism).
        // adj[ring] = [(neighbor ring, endpoint-on-this-ring NodeId)]
        let mut adj: Vec<Vec<(usize, NodeId)>> = vec![Vec::new(); nrings];
        for br in topo.bridges() {
            let (na, nb) = (&nodes[br.a.index()], &nodes[br.b.index()]);
            adj[na.ring.index()].push((nb.ring.index(), br.a));
            adj[nb.ring.index()].push((na.ring.index(), br.b));
        }
        for a in &mut adj {
            a.sort_by_key(|&(r, n)| (r, n));
        }

        // BFS from every ring for bridge-count distances.
        let mut ring_dist = vec![vec![u32::MAX; nrings]; nrings];
        for (start, dist) in ring_dist.iter_mut().enumerate() {
            dist[start] = 0;
            let mut queue = std::collections::VecDeque::from([start]);
            while let Some(r) = queue.pop_front() {
                for &(nbr, _) in &adj[r] {
                    if dist[nbr] == u32::MAX {
                        dist[nbr] = dist[r] + 1;
                        queue.push_back(nbr);
                    }
                }
            }
        }

        // Equal-cost first hops from `ring` toward `to`: every local
        // bridge endpoint whose neighbor ring is one step closer.
        // Parallel bridges between the same ring pair load-share by
        // hashing the destination node over the candidate set.
        let candidates = |ring: usize, to: usize| -> Vec<NodeId> {
            let d = ring_dist[ring][to];
            if d == u32::MAX || d == 0 {
                return Vec::new();
            }
            adj[ring]
                .iter()
                .filter(|&&(nbr, _)| ring_dist[nbr][to] == d - 1)
                .map(|&(_, via)| via)
                .collect()
        };

        // Exit target per (ring, destination node), ring-major.
        let stride = nodes.len();
        let mut next = vec![UNREACHABLE; nrings * stride];
        for dst in nodes {
            for ring in 0..nrings {
                let target = if dst.ring.index() == ring {
                    dst.id
                } else {
                    let cands = candidates(ring, dst.ring.index());
                    if cands.is_empty() {
                        continue;
                    }
                    cands[dst.id.index() % cands.len()]
                };
                next[ring * stride + dst.id.index()] = target.0;
            }
        }

        RouteTable {
            next,
            stride,
            station: nodes.iter().map(|n| n.station).collect(),
            ring_dist,
        }
    }

    /// Exit hop on `ring` for a flit destined to `dst`, or `None` when
    /// unreachable.
    #[inline]
    pub fn exit(&self, ring: RingId, dst: NodeId) -> Option<Hop> {
        let target = self.next[ring.index() * self.stride + dst.index()];
        (target != UNREACHABLE).then(|| Hop {
            station: self.station[target as usize],
            target: NodeId(target),
        })
    }

    /// Number of ring changes (bridge traversals) between two rings.
    /// `None` when unreachable.
    pub fn ring_changes(&self, from: RingId, to: RingId) -> Option<u32> {
        let d = self.ring_dist[from.index()][to.index()];
        (d != u32::MAX).then_some(d)
    }
}

/// Shortest travel on a ring: direction and hop count from `from` to
/// `to` on a ring with `stations` stations.
///
/// Half rings only travel clockwise. Full rings pick the shorter arc,
/// clockwise on ties (deterministic).
///
/// # Example
///
/// ```
/// use noc_core::route::ring_travel;
/// use noc_core::{Direction, RingKind};
/// let (dir, hops) = ring_travel(RingKind::Full, 8, 1, 7);
/// assert_eq!((dir, hops), (Direction::Ccw, 2));
/// let (dir, hops) = ring_travel(RingKind::Half, 8, 1, 7);
/// assert_eq!((dir, hops), (Direction::Cw, 6));
/// ```
pub fn ring_travel(kind: RingKind, stations: u16, from: u16, to: u16) -> (Direction, u16) {
    let n = stations;
    // `from, to < n`, so each arc is one conditional add — no division.
    let cw = if to >= from { to - from } else { to + n - from };
    match kind {
        RingKind::Half => (Direction::Cw, cw),
        RingKind::Full => {
            let ccw = if cw == 0 { 0 } else { n - cw };
            if cw <= ccw {
                (Direction::Cw, cw)
            } else {
                (Direction::Ccw, ccw)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BridgeConfig;
    use crate::topology::TopologyBuilder;

    fn linear_three_rings() -> (Topology, Vec<NodeId>) {
        let mut b = TopologyBuilder::new();
        let d = b.add_chiplet("die");
        let r0 = b.add_ring(d, RingKind::Full, 8).unwrap();
        let r1 = b.add_ring(d, RingKind::Full, 8).unwrap();
        let r2 = b.add_ring(d, RingKind::Full, 8).unwrap();
        let a = b.add_node("a", r0, 0).unwrap();
        let m = b.add_node("m", r1, 0).unwrap();
        let c = b.add_node("c", r2, 0).unwrap();
        b.add_bridge(BridgeConfig::l1(), r0, 4, r1, 2).unwrap();
        b.add_bridge(BridgeConfig::l1(), r1, 6, r2, 2).unwrap();
        (b.build().unwrap(), vec![a, m, c])
    }

    #[test]
    fn same_ring_exit_is_destination() {
        let (topo, ids) = linear_three_rings();
        let table = RouteTable::build(&topo);
        let hop = table.exit(RingId(0), ids[0]).unwrap();
        assert_eq!(hop.station, 0);
        assert_eq!(hop.target, ids[0]);
    }

    #[test]
    fn cross_ring_exit_is_bridge_endpoint() {
        let (topo, ids) = linear_three_rings();
        let table = RouteTable::build(&topo);
        // From ring 0 toward node on ring 2: exit at the r0-side bridge
        // endpoint (station 4).
        let hop = table.exit(RingId(0), ids[2]).unwrap();
        assert_eq!(hop.station, 4);
        // Target must be a bridge endpoint, not the device.
        assert_ne!(hop.target, ids[2]);
    }

    #[test]
    fn ring_changes_counts_bridges() {
        let (topo, _) = linear_three_rings();
        let table = RouteTable::build(&topo);
        assert_eq!(table.ring_changes(RingId(0), RingId(0)), Some(0));
        assert_eq!(table.ring_changes(RingId(0), RingId(1)), Some(1));
        assert_eq!(table.ring_changes(RingId(0), RingId(2)), Some(2));
    }

    #[test]
    fn ring_travel_shortest_direction() {
        assert_eq!(ring_travel(RingKind::Full, 8, 0, 3), (Direction::Cw, 3));
        assert_eq!(ring_travel(RingKind::Full, 8, 0, 5), (Direction::Ccw, 3));
        // Tie (distance 4 both ways) goes clockwise.
        assert_eq!(ring_travel(RingKind::Full, 8, 0, 4), (Direction::Cw, 4));
        // Same station: zero hops.
        assert_eq!(ring_travel(RingKind::Full, 8, 2, 2), (Direction::Cw, 0));
    }

    #[test]
    fn half_ring_always_clockwise() {
        assert_eq!(ring_travel(RingKind::Half, 6, 5, 0), (Direction::Cw, 1));
        assert_eq!(ring_travel(RingKind::Half, 6, 0, 5), (Direction::Cw, 5));
    }

    #[test]
    fn ring_travel_equals_the_modulo_form() {
        for n in 1..=130u16 {
            for from in 0..n {
                for to in 0..n {
                    let cw = (to + n - from) % n;
                    let ccw = (from + n - to) % n;
                    let full = if cw <= ccw {
                        (Direction::Cw, cw)
                    } else {
                        (Direction::Ccw, ccw)
                    };
                    assert_eq!(ring_travel(RingKind::Full, n, from, to), full, "n={n}");
                    assert_eq!(
                        ring_travel(RingKind::Half, n, from, to),
                        (Direction::Cw, cw),
                        "n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn full_ring_never_exceeds_half_lap() {
        for n in [2u16, 3, 5, 8, 16, 33] {
            for from in 0..n {
                for to in 0..n {
                    let (_, hops) = ring_travel(RingKind::Full, n, from, to);
                    assert!(hops <= n / 2 + (n % 2), "n={n} {from}->{to} hops={hops}");
                }
            }
        }
    }
}
