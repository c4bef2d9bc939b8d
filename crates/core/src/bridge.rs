//! Bridge sides as double-buffered mailboxes, and the two barriers
//! that couple them.
//!
//! Each bridge is split into two [`BridgeSide`]s, one owned by each
//! endpoint's [`RingShard`], and the pipeline between them is a pair of
//! mailboxes:
//!
//! * `tx` — flits this side pushed toward the peer **this cycle**
//!   (bridge intake writes here during the per-ring phase);
//! * `rx` — flits in flight toward this side's endpoint (bridge
//!   delivery drains matured entries at the start of the cycle).
//!
//! During the per-ring phase a shard only ever touches its own sides, so
//! the order the shards run in cannot be observed. Capacity must still
//! behave as if the pipeline were one queue, so each side carries
//! [`BridgeSide::peer_backlog`], the length of the peer's `rx`, and
//! [`BridgeSide::pipe_len`] (`peer_backlog + tx.len()`) is the
//! pipeline's occupancy.
//!
//! # The barriers visit only sides whose mailbox moved
//!
//! `peer_backlog == peer.rx.len()` is an invariant, not a per-cycle
//! snapshot: it is repaired at the two moments an `rx` changes length.
//!
//! * Delivery pops `rx` and marks the side in its shard's `popped` set.
//!   Barrier 1 ([`publish_pops`]) walks those marks and writes the new
//!   depth into each popped side's peer. A side that popped nothing has
//!   a peer whose `peer_backlog` is still right, and a shard with
//!   nothing matured is not looked at.
//! * Intake stages into `tx` and marks the side `staged`. Barrier 2
//!   ([`exchange`]) walks those marks, appends `tx` onto the peer's
//!   `rx`, and in the same step sets the sender's `peer_backlog`, the
//!   receiver's [`BridgeSide::rx_due`] and the receiving shard's
//!   earliest due cycle.
//!
//! Most sides of most bridges carry nothing in a given cycle; for them
//! neither barrier does anything, and an idle fabric pays one compare
//! per shard for barrier 1 and one word test per shard for barrier 2.
//!
//! # Who performs them
//!
//! The engine's cycle (`crate::epoch::run_cycle`) runs both barriers
//! once per cycle over every shard of the network. The peer of a marked
//! side is found through [`BridgeSide::peer`], a global (ring, side)
//! index.

use crate::bits::word_ones;
use crate::config::{BridgeConfig, BridgeLevel};
use crate::flit::Flit;
use crate::ids::BridgeId;
use crate::shard::{RingShard, SideLoc};
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
    /// Where the other side of the bridge lives (global ring index).
    pub peer: SideLoc,
    /// The bridge's configuration (shared by both sides).
    pub cfg: BridgeConfig,
    /// Inbound mailbox: flits in flight toward this endpoint.
    pub rx: VecDeque<(u64, Flit)>,
    /// Ready cycle of `rx.front()`, `u64::MAX` when `rx` is empty:
    /// delivery compares this instead of dereferencing the queue.
    pub rx_due: u64,
    /// Outbound mailbox: flits staged toward the peer this cycle.
    pub tx: VecDeque<(u64, Flit)>,
    /// The peer's `rx` length, kept true by the two barriers.
    pub peer_backlog: usize,
    /// `(cycle, flits)` of the most recent intake that staged anything,
    /// read only by [`BridgeSide::pipe_gauge`].
    pub last_staged: (u64, usize),
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
    /// it: what already sits in the peer's inbox plus what this cycle
    /// has staged. Intake is capped by `cfg.buffer_cap` against this.
    #[inline]
    pub fn pipe_len(&self) -> usize {
        self.peer_backlog + self.tx.len()
    }

    /// The `tx_pipe` gauge at cycle `now`: the pipeline as this side's
    /// intake last saw it. A sample taken between ticks (`now` is the
    /// last cycle run, barrier 2 has emptied `tx`) leaves out the batch
    /// that barrier just handed over — the reading every observatory
    /// stream was pinned with, from when `peer_backlog` was refreshed
    /// once per cycle rather than kept true.
    pub fn pipe_gauge(&self, now: u64) -> usize {
        let (at, flits) = self.last_staged;
        let handed_over = if at == now && self.tx.is_empty() {
            flits
        } else {
            0
        };
        self.pipe_len() - handed_over
    }

    /// Whether deadlock resolution mode applies to this side at all:
    /// an L2 bridge with SWAP armed.
    #[inline]
    pub fn drm_capable(&self) -> bool {
        self.cfg.level == BridgeLevel::L2 && self.cfg.swap_enabled
    }

    /// What `rx_due` must read: the ready cycle of the head of `rx`.
    #[inline]
    pub fn head_due(&self) -> u64 {
        self.rx.front().map_or(u64::MAX, |&(ready, _)| ready)
    }

    /// Re-read `rx_due` after `rx` changed.
    #[inline]
    pub fn refresh_rx_due(&mut self) {
        self.rx_due = self.head_due();
    }

    /// Flits physically inside this side (mailboxes + escape buffers),
    /// for conservation checks.
    pub fn resident_flits(&self) -> usize {
        self.rx.len() + self.tx.len() + self.reserved.len()
    }
}

/// Barrier 1, for one shard whose delivery just popped: every side it
/// popped from tells its peer the new inbox depth, so intake can
/// enforce pipeline capacity without reading another shard. Consumes
/// the shard's `popped` marks. Nothing reads a `peer_backlog` before
/// the per-ring phase, so the loop calls this per shard, straight after
/// its delivery, rather than in a pass of its own.
pub(crate) fn publish_pops(shards: &mut [RingShard], sh: usize) {
    for wi in 0..shards[sh].popped.words().len() {
        let w = shards[sh].popped.words()[wi];
        shards[sh].profile.side_visits += u64::from(w.count_ones());
        for si in word_ones(wi, w) {
            shards[sh].popped.clear(si);
            let (ps, pi) = shards[sh].sides[si].peer.at();
            shards[ps].sides[pi].peer_backlog = shards[sh].sides[si].rx.len();
        }
    }
}

/// Barrier 2: every side intake staged into this cycle appends its `tx`
/// outbox onto the peer's `rx` inbox (`append` leaves the outbox empty
/// with its capacity intact), and the indices that depend on that inbox
/// follow in the same step. Consumes the `staged` marks. Unlike
/// barrier 1 this must wait for every shard's per-ring phase: a
/// receiver's `rx` depth is a gauge its metrics sample reads.
pub(crate) fn exchange(shards: &mut [RingShard]) {
    for sh in 0..shards.len() {
        for wi in 0..shards[sh].staged.words().len() {
            let w = shards[sh].staged.words()[wi];
            shards[sh].profile.side_visits += u64::from(w.count_ones());
            for si in word_ones(wi, w) {
                shards[sh].staged.clear(si);
                let (ps, pi) = shards[sh].sides[si].peer.at();
                // A bridge never joins a ring to itself.
                let [from, to] = shards
                    .get_disjoint_mut([sh, ps])
                    .expect("bridge sides live on different rings");
                let side = &mut from.sides[si];
                side.peer_backlog = to.receive(pi, &mut side.tx);
            }
        }
    }
}
