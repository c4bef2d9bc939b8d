//! Bridge sides as double-buffered mailboxes.
//!
//! The monolithic engine kept one [`BridgeState`] per bridge with two
//! shared pipelines — impossible to hand to two ring shards at once.
//! Here each bridge is split into two [`BridgeSide`]s, one owned by
//! each endpoint's [`RingShard`](crate::shard::RingShard), and the
//! pipeline becomes a pair of mailboxes:
//!
//! * `tx` — flits this side pushed toward the peer **this tick**
//!   (bridge intake writes here during the per-ring phase);
//! * `rx` — flits in flight toward this side's endpoint (bridge
//!   delivery drains matured entries at the start of the tick).
//!
//! Between the per-ring phase and the next tick, the engine swaps: each
//! side's `tx` is appended onto the peer's `rx` at a phase barrier,
//! with no shard running. During the per-ring phase a shard therefore
//! only ever touches its own side — which is exactly what makes the
//! fan-out deterministic: no ordering between shards can be observed.
//!
//! Capacity must still behave as if the pipeline were one queue. The
//! engine snapshots the peer's post-delivery `rx` length into
//! [`BridgeSide::peer_backlog`] before the per-ring phase, so
//! [`BridgeSide::pipe_len`] (`peer_backlog + tx.len()`) reproduces the
//! monolith's pipeline occupancy bit for bit.
//!
//! # Who performs the swap
//!
//! The engine's cycle loop (`crate::epoch::run_cycles`) runs both
//! exchanges once per cycle. Sides whose peer is among the shards the
//! loop was handed swap inline, exactly as above — under
//! `ExecMode::Sequential` that is every bridge. Under
//! `ExecMode::Parallel` a side whose peer lives in another thread's
//! partition exchanges the identical values — the post-delivery `rx`
//! depth, then the staged `tx` batch — as messages over a dedicated
//! SPSC ring per direction. The bridge's `latency` also bounds the
//! epoch: `K` may not exceed the fabric's minimum bridge latency, so
//! no flit both enters and matures in a pipeline within one epoch,
//! which is what lets the engine defer caller-visible drains to the
//! epoch boundary.

use crate::config::BridgeConfig;
use crate::flit::Flit;
use crate::ids::BridgeId;
use crate::shard::RingShard;
use std::collections::VecDeque;

/// One side of a bridge, owned by the shard of the ring it sits on.
/// Entries in `rx`/`tx` are `(ready_cycle, flit)` pairs, FIFO.
#[derive(Debug, Clone)]
pub(crate) struct BridgeSide {
    /// The bridge this side belongs to.
    pub bridge: BridgeId,
    /// Which side of the bridge this is (0 = `a`, 1 = `b`), for
    /// metrics labelling.
    pub side: u8,
    /// Shard-local index of this side's endpoint node.
    pub endpoint: u32,
    /// The bridge's configuration (shared by both sides).
    pub cfg: BridgeConfig,
    /// Inbound mailbox: flits in flight toward this endpoint.
    pub rx: VecDeque<(u64, Flit)>,
    /// Outbound mailbox: flits staged toward the peer this tick.
    pub tx: VecDeque<(u64, Flit)>,
    /// Peer `rx` length snapshotted at the pre-phase barrier.
    pub peer_backlog: usize,
    /// Reserved escape buffers (SWAP/escape mode, §4.4), oldest first.
    pub reserved: VecDeque<Flit>,
    /// Whether this side is in deadlock resolution mode.
    pub drm: bool,
    /// Times this side has entered DRM since construction (monotonic;
    /// the per-side split of `NetStats::drm_entries`).
    pub drm_entries: u64,
    /// Flits ever pushed into `tx` by bridge intake (monotonic). The
    /// wait-graph detector's progress counter for this escape
    /// resource: a side with flits resident whose `tx_pushed` stops
    /// advancing is frozen, even though occupancy alone can't
    /// distinguish a full-but-flowing pipe from a wedged one.
    pub tx_pushed: u64,
    /// Flits ever drained from `rx` into the endpoint inject queue
    /// (monotonic). Paired with the peer's `tx_pushed` it covers both
    /// ends of the pipeline: either counter advancing means the escape
    /// resource is still moving.
    pub rx_popped: u64,
}

impl BridgeSide {
    /// Occupancy of this side's outgoing pipeline as the monolith saw
    /// it: what already sits in the peer's inbox plus what this tick
    /// has staged. Intake is capped by `cfg.buffer_cap` against this.
    #[inline]
    pub fn pipe_len(&self) -> usize {
        self.peer_backlog + self.tx.len()
    }

    /// Flits physically inside this side (mailboxes + escape buffers),
    /// for conservation checks.
    pub fn resident_flits(&self) -> usize {
        self.rx.len() + self.tx.len() + self.reserved.len()
    }
}

/// The two sides of one bridge, borrowed together out of the two
/// shards that own them (a bridge never joins a ring to itself). `a`
/// and `b` are `(shard index, side index)` into `shards` — the engine's
/// full shard list or one partition of it.
pub(crate) fn pair_mut(
    shards: &mut [RingShard],
    a: (usize, usize),
    b: (usize, usize),
) -> (&mut BridgeSide, &mut BridgeSide) {
    assert_ne!(a.0, b.0, "bridge sides live on different rings");
    let (lo, hi) = shards.split_at_mut(a.0.max(b.0));
    let (sa, sb) = if a.0 < b.0 {
        (&mut lo[a.0], &mut hi[0])
    } else {
        (&mut hi[0], &mut lo[b.0])
    };
    (&mut sa.sides[a.1], &mut sb.sides[b.1])
}

/// Pre-phase barrier for one bridge: each side records the other's
/// post-delivery inbox depth.
#[inline]
pub(crate) fn snapshot_backlogs(a: &mut BridgeSide, b: &mut BridgeSide) {
    a.peer_backlog = b.rx.len();
    b.peer_backlog = a.rx.len();
}

/// Post-phase barrier for one bridge: append each side's `tx` outbox
/// onto the other's `rx` inbox. Most sides stage nothing in a given
/// cycle, so the empty case returns before touching the peer; `append`
/// leaves the outbox empty with its capacity intact.
#[inline]
pub(crate) fn exchange(a: &mut BridgeSide, b: &mut BridgeSide) {
    if !a.tx.is_empty() {
        b.rx.append(&mut a.tx);
    }
    if !b.tx.is_empty() {
        a.rx.append(&mut b.tx);
    }
}
