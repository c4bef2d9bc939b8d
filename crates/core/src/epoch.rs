//! The engine's one cycle: the only place the tick's phases are spelled
//! out.
//!
//! [`run_cycle`] runs, over every shard on the calling thread: deliver →
//! barrier 1 → per-ring cycle → barrier 2. The barriers keep one
//! invariant across shards — every bridge side's
//! [`BridgeSide::peer_backlog`] equals its peer's `rx` length — and they
//! do it by event, not by census: [`bridge::publish_pops`] visits the
//! sides delivery popped from this cycle (per shard, straight after that
//! shard's delivery — nothing reads a depth before the per-ring phase),
//! [`bridge::exchange`] the sides intake staged into (see
//! [`crate::bridge`]).
//!
//! One thread runs one cycle at a time. The rings are independent
//! conveyor belts coupled only at bridges, so a host scales by running
//! many networks side by side, not by splitting one. Everything a caller
//! can observe — metrics commits, watchdogs, trace emission — happens
//! in `Network`'s epilogue at the end of the same cycle.
//!
//! [`BridgeSide::peer_backlog`]: crate::bridge::BridgeSide::peer_backlog

use crate::bridge;
use crate::shard::{EngineShared, RingShard};
use noc_sim::Cycle;

/// Run cycle `now` on `shards`, every ring of the network in ring order
/// (see the module docs for the phase order and what the barriers do).
pub(crate) fn run_cycle<const TRACE: bool>(
    shards: &mut [RingShard],
    shared: &EngineShared,
    now: Cycle,
) {
    // Deliver, and barrier 1: post-delivery inbox depths reach the
    // peers of the sides that were popped from.
    for sh in 0..shards.len() {
        if shards[sh].phase_deliver::<TRACE>(shared, now) {
            bridge::publish_pops(shards, sh);
        }
    }
    debug_check_barrier(shards, now.raw());
    for sh in shards.iter_mut() {
        sh.phase_cycle::<TRACE>(shared, now);
    }
    // Barrier 2: staged tx batches onto peer rx inboxes.
    bridge::exchange(shards);
}

/// Debug builds: after barrier 1 of cycle `now`, walk every side and
/// check what only the loop can see — delivery skipped no side that had
/// a matured flit and room for it, and every side holds its peer's true
/// inbox depth. (The shard-local indices are checked by
/// `RingShard::debug_check_side_indices`.)
fn debug_check_barrier(shards: &[RingShard], now: u64) {
    if !cfg!(debug_assertions) {
        return;
    }
    for shard in shards {
        for (si, side) in shard.sides.iter().enumerate() {
            let ring = shard.ring.id;
            assert!(
                side.head_due() > now || shard.nodes[side.endpoint as usize].inject.is_full(),
                "{ring} side {si}: delivery skipped a matured flit at cycle {now}"
            );
            let (ps, pi) = side.peer.at();
            assert_eq!(
                side.peer_backlog,
                shards[ps].sides[pi].rx.len(),
                "{ring} side {si}: stale peer_backlog at cycle {now}"
            );
        }
    }
}
