//! The golden-model tick: exhaustive station sweeps.
//!
//! Every cycle, walk every station of every lane of the ring (and
//! every node for zero-hop local deliveries), whether or not anything
//! can happen there. It is deliberately boring — the point is that its
//! correctness is easy to see, so it can anchor the differential tests
//! that hold the event-indexed fast path
//! ([`crate::network::TickMode::Fast`]) to cycle-exact equivalence.
//!
//! Both sweeps run the same arbitration, tag and SWAP logic on the
//! owning [`RingShard`] (`process_station` / `try_local_delivery`),
//! but with `REF = true`: whether the flit in a slot leaves the ring
//! here is decided by routing that flit, and what a queue head wants by
//! routing that head — every station, every cycle. The fast path
//! instead reads the lanes' exit calendars and the nodes' cached head
//! intents, and visits a station only when one of them (or an I-tag)
//! says something happens there. The golden model keeps those indices
//! up to date — the mutators it shares with the fast path do — but
//! never reads them, so a wrong calendar bit or a stale intent shows
//! up as a divergence between the modes; in debug builds the sweeps
//! below additionally assert index against truth at every station they
//! visit.
//!
//! Since the engine was sharded per ring, these walk one shard at a
//! time; `try_local_delivery` only touches state of the one station it
//! serves, so any fixed enumeration order yields identical results —
//! see DESIGN.md §10.

use crate::shard::{EngineShared, RingShard};
use noc_sim::Cycle;

/// Exhaustive station walk over one shard: every lane, every station,
/// in ascending order.
pub(crate) fn sweep<const TRACE: bool>(shard: &mut RingShard, shared: &EngineShared, now: Cycle) {
    let lanes = shard.ring.lanes.len();
    let stations = shard.ring.stations;
    for li in 0..lanes {
        for s in 0..stations {
            shard.debug_check_indices(shared, li, s);
            shard.process_station::<TRACE, true>(shared, now, li, s);
        }
    }
}

/// Exhaustive zero-hop local-delivery pass: every node of the shard in
/// ascending local (= ascending global, within the ring) order.
pub(crate) fn local_sweep<const TRACE: bool>(
    shard: &mut RingShard,
    shared: &EngineShared,
    now: Cycle,
) {
    for i in 0..shard.nodes.len() {
        shard.debug_check_want(shared, i);
        shard.try_local_delivery::<TRACE>(shared, now, i);
    }
}
