//! The engine's one cycle: the only place the tick's phases are spelled
//! out.
//!
//! [`run_cycle`] runs two phases over every shard, in ring order, on
//! the calling thread: deliver, then the per-ring cycle. Both borrow the
//! network's bridge escapes ([`crate::bridge`]) and its flit slab
//! ([`crate::slab`]): delivery pops the matured flits landing on a ring,
//! the per-ring cycle's intake and SWAP push into the escapes leaving
//! it, and every container moves handles while the per-event writes go
//! to the bodies in the slab. The per-ring cycle also borrows the
//! network's one set of delivery histograms ([`DeliveryHists`]): a
//! device delivery records its latencies, hops and deflections there,
//! read from the body in the slab. A flit pushed in a cycle is due
//! one bridge latency (at least one cycle) later, so nothing a ring
//! pushes can be delivered in the cycle it was pushed, whatever order
//! the rings run in.
//!
//! One thread runs one cycle at a time. The rings are independent
//! conveyor belts coupled only at bridges, so a host scales by running
//! many networks side by side, not by splitting one. The cycle writes
//! datapath state only. Everything a caller can observe — the metrics
//! sample and its commit, watchdogs, trace emission — happens in
//! `Network`'s epilogue at the end of the same cycle, once every ring
//! has run (`crate::observe`).

use crate::bridge::Bridges;
use crate::shard::{EngineShared, RingShard};
use crate::slab::FlitSlab;
use crate::stats::DeliveryHists;
use noc_sim::Cycle;

/// Run cycle `now` on `shards`, every ring of the network in ring order
/// (see the module docs for the phase order).
pub(crate) fn run_cycle<const TRACE: bool>(
    shards: &mut [RingShard],
    bridges: &mut Bridges,
    slab: &mut FlitSlab,
    hists: &mut DeliveryHists,
    shared: &EngineShared,
    now: Cycle,
) {
    for sh in shards.iter_mut() {
        sh.phase_deliver::<TRACE>(shared, bridges, slab, now);
    }
    debug_check_matured(shards, bridges, now.raw());
    for sh in shards.iter_mut() {
        sh.phase_cycle::<TRACE>(shared, bridges, slab, hists, now);
    }
    debug_check_escapes(bridges);
    debug_check_handles(shards, bridges, slab);
}

/// Debug builds: after the delivery phase of cycle `now`, no side is
/// left with a matured flit while its endpoint's Inject Queue has room.
/// (The shard-local indices are checked by
/// `RingShard::debug_check_side_indices`.)
fn debug_check_matured(shards: &[RingShard], bridges: &Bridges, now: u64) {
    if !cfg!(debug_assertions) {
        return;
    }
    for shard in shards {
        for (si, side) in shard.sides.iter().enumerate() {
            assert!(
                bridges.escapes[side.inbound()].head_due() > now
                    || shard.nodes[side.endpoint as usize].inject.is_full(),
                "{} side {si}: delivery skipped a matured flit at cycle {now}",
                shard.ring.id
            );
        }
    }
}

/// Debug builds: at the end of a cycle every escape holds the RBRG
/// buffer bounds — at most `buffer_cap` flits in the pipeline and
/// `reserved_cap` in the reserved buffers — and every ring's due cycle
/// is the earliest head among the escapes landing on it.
fn debug_check_escapes(bridges: &Bridges) {
    if !cfg!(debug_assertions) {
        return;
    }
    let mut due = vec![u64::MAX; bridges.due.len()];
    for (e, esc) in bridges.escapes.iter().enumerate() {
        assert!(
            esc.fifo.len() <= esc.cfg.buffer_cap,
            "escape {e}: {} flits in a {}-flit pipeline",
            esc.fifo.len(),
            esc.cfg.buffer_cap
        );
        assert!(
            esc.reserved.len() <= esc.cfg.reserved_cap,
            "escape {e}: {} flits in {} reserved buffers",
            esc.reserved.len(),
            esc.cfg.reserved_cap
        );
        let ring = esc.to_ring as usize;
        due[ring] = due[ring].min(esc.head_due());
    }
    assert_eq!(
        bridges.due, due,
        "a ring's due cycle is not its earliest head"
    );
}

/// Debug builds: at the end of a cycle, the handles held by every
/// container of flits — lane slots, Inject and Eject Queues, escape
/// pipelines and reserved buffers — name each live slab slot exactly
/// once and no free one ([`FlitSlab::debug_check_owners`]). The walk
/// starts from the containers, not from counters, so a handle dropped,
/// duplicated or left behind by a move fails at the cycle it happens.
fn debug_check_handles(shards: &[RingShard], bridges: &Bridges, slab: &FlitSlab) {
    if !cfg!(debug_assertions) {
        return;
    }
    let lanes = shards
        .iter()
        .flat_map(|sh| sh.ring.lanes.iter().flat_map(|lane| lane.flits()));
    let queues = shards.iter().flat_map(|sh| {
        sh.nodes
            .iter()
            .flat_map(|n| n.inject.iter().chain(n.eject.iter()).copied())
    });
    let escapes = bridges.escapes.iter().flat_map(|esc| {
        let fifo = esc.fifo.iter().map(|&(_, flit)| flit);
        fifo.chain(esc.reserved.iter().copied())
    });
    slab.debug_check_owners(lanes.chain(queues).chain(escapes));
}
