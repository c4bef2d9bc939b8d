//! A flit's latency on an empty network, in closed form, from the
//! [`Topology`] alone. The terms are those of a ring-router pipeline:
//!
//! * the inject stage: a flit enqueued at cycle `c` boards its ring at
//!   `c + 1` ([`INJECT_STAGE`]);
//! * one cycle per hop on each ring, by the shortest direction (ties
//!   clockwise), where half rings only go clockwise;
//! * per bridge: its Rx stage (the flit ejects into the near endpoint
//!   and enters the pipeline in the cycle it arrives), its `latency`,
//!   and its Tx stage (the far endpoint boards the flit in the cycle it
//!   leaves the pipeline) — [`RX_STAGE`] and [`TX_STAGE`];
//! * the eject stage: a flit is delivered in the cycle it reaches its
//!   destination's station ([`EJECT_STAGE`]).
//!
//! The path is the routing contract restated: fewest ring changes;
//! where several bridges out of a ring are equally short, they are
//! ranked by (neighbour ring, near endpoint id) and the destination id
//! modulo their count picks one.
//!
//! `zero_load.rs` holds the engine to it on every device pair;
//! `tests/table5_split.rs` includes this file by path to split Table 5
//! into its fabric and protocol parts. Each uses a subset, hence the
//! blanket `dead_code` allowance.
#![allow(dead_code)]

use noc_core::{NodeId, RingKind, Topology};
use std::collections::VecDeque;

/// Cycles from enqueue to boarding the first ring.
pub const INJECT_STAGE: u64 = 1;
/// Cycles from reaching a bridge endpoint's station to entering its
/// pipeline.
pub const RX_STAGE: u64 = 0;
/// Cycles from leaving a bridge pipeline to boarding the far ring.
pub const TX_STAGE: u64 = 0;
/// Cycles from reaching the destination's station to delivery.
pub const EJECT_STAGE: u64 = 0;

/// Hops from station `from` to station `to` on a ring of `stations`.
pub fn hops(kind: RingKind, stations: u16, from: u16, to: u16) -> u64 {
    let n = u64::from(stations);
    let cw = (u64::from(to) + n - u64::from(from)) % n;
    match kind {
        RingKind::Half => cw,
        RingKind::Full => cw.min(n - cw),
    }
}

/// The closed-form model of one topology.
pub struct ZeroLoad<'a> {
    topo: &'a Topology,
    /// Per ring: `(neighbour ring, near endpoint, far endpoint, latency)`
    /// for every bridge attached to it, ranked by (neighbour, near id).
    exits: Vec<Vec<(usize, NodeId, NodeId, u64)>>,
    /// Bridge count between every pair of rings (`None`: unreachable).
    dist: Vec<Vec<Option<u32>>>,
}

impl<'a> ZeroLoad<'a> {
    pub fn new(topo: &'a Topology) -> Self {
        let nodes = topo.nodes();
        let ring_of = |n: NodeId| nodes[n.index()].ring.index();
        let mut exits = vec![Vec::new(); topo.rings().len()];
        for b in topo.bridges() {
            let lat = u64::from(b.config.latency);
            exits[ring_of(b.a)].push((ring_of(b.b), b.a, b.b, lat));
            exits[ring_of(b.b)].push((ring_of(b.a), b.b, b.a, lat));
        }
        for e in &mut exits {
            e.sort_by_key(|&(nbr, near, _, _)| (nbr, near));
        }
        let dist = (0..exits.len())
            .map(|start| {
                let mut d = vec![None; exits.len()];
                d[start] = Some(0);
                let mut queue = VecDeque::from([start]);
                while let Some(r) = queue.pop_front() {
                    for &(nbr, ..) in &exits[r] {
                        if d[nbr].is_none() {
                            d[nbr] = d[r].map(|x| x + 1);
                            queue.push_back(nbr);
                        }
                    }
                }
                d
            })
            .collect();
        ZeroLoad { topo, exits, dist }
    }

    /// The single-flit latency from `src` to `dst` on an empty network.
    pub fn latency(&self, src: NodeId, dst: NodeId) -> u64 {
        let nodes = self.topo.nodes();
        let to = &nodes[dst.index()];
        let travel = |ring: usize, from: u16, to: u16| {
            let r = &self.topo.rings()[ring];
            hops(r.kind, r.stations, from, to)
        };
        let (mut ring, mut station) = (nodes[src.index()].ring.index(), nodes[src.index()].station);
        let mut total = INJECT_STAGE;
        while ring != to.ring.index() {
            let d = self.dist[ring][to.ring.index()].expect("destination reachable");
            let closer: Vec<_> = self.exits[ring]
                .iter()
                .filter(|&&(nbr, ..)| self.dist[nbr][to.ring.index()] == Some(d - 1))
                .collect();
            let &(nbr, near, far, latency) = closer[dst.index() % closer.len()];
            total +=
                travel(ring, station, nodes[near.index()].station) + RX_STAGE + latency + TX_STAGE;
            ring = nbr;
            station = nodes[far.index()].station;
        }
        total + travel(ring, station, to.station) + EJECT_STAGE
    }
}
