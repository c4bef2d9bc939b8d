//! Ring bridges: one FIFO per bridge direction.
//!
//! A bridge (RBRG-L1/L2, §4.1.3 and §4.4) has one buffered Tx pipeline
//! per direction, plus, on L2, the reserved escape buffers SWAP fills.
//! Each direction is one [`Escape`], indexed `2 * bridge + sending
//! side` — the unit the wait graph calls an escape resource. The
//! escapes live in [`Bridges`], which the `Network` owns next to the
//! ring shards and lends to each phase of the cycle:
//!
//! * delivery pops a side's inbound escape (`out ^ 1`) into its
//!   endpoint's Inject Queue;
//! * intake pushes its endpoint's Eject Queue (reserved buffers first)
//!   into its outbound escape;
//! * the SWAP path of the station sweep fills the outbound reserved
//!   buffers.
//!
//! A shard keeps only what belongs to one side ([`BridgeSide`]: the
//! endpoint and the DRM state), plus the intake and DRM-watch side sets
//! that decide which sides those phases visit (DESIGN.md §21).
//!
//! # Due cycles
//!
//! [`Bridges::due`] holds, per ring, the earliest ready cycle over the
//! heads of the escapes that land on it (`u64::MAX` when all are
//! empty). A push lowers the receiving ring's entry and a ring's
//! delivery re-derives its own, so a ring with nothing matured pays one
//! compare for delivery.

use crate::config::{BridgeConfig, BridgeLevel};
use crate::ids::BridgeId;
use crate::slab::FlitRef;
use std::collections::VecDeque;

/// One direction of one bridge. See the module docs.
#[derive(Debug, Clone)]
pub(crate) struct Escape {
    /// The bridge's configuration (both directions carry it).
    pub cfg: BridgeConfig,
    /// Ring the crossing lands on.
    pub to_ring: u16,
    /// The Tx pipeline: `(ready_cycle, flit)` in push order, at most
    /// `cfg.buffer_cap` entries.
    pub fifo: VecDeque<(u64, FlitRef)>,
    /// Reserved escape buffers (SWAP/escape mode, §4.4), oldest first,
    /// at most `cfg.reserved_cap` flits.
    pub reserved: VecDeque<FlitRef>,
    /// `(cycle, flits)` of the most recent intake that pushed anything,
    /// read only by [`Bridges::gauges`].
    pub last_push: (u64, usize),
}

impl Escape {
    /// Ready cycle of the pipeline's head, `u64::MAX` when it is empty.
    #[inline]
    pub fn head_due(&self) -> u64 {
        self.fifo.front().map_or(u64::MAX, |&(ready, _)| ready)
    }

    /// Flits intake pushed during cycle `now`.
    fn pushed_at(&self, now: u64) -> usize {
        let (at, flits) = self.last_push;
        if at == now {
            flits
        } else {
            0
        }
    }

    /// Whether deadlock resolution mode applies at all: an L2 bridge
    /// with SWAP armed.
    pub fn drm_capable(&self) -> bool {
        self.cfg.level == BridgeLevel::L2 && self.cfg.swap_enabled
    }
}

/// Every bridge direction of a network plus the per-ring due cycles.
#[derive(Debug, Clone)]
pub(crate) struct Bridges {
    /// Index `2 * bridge + sending side`.
    pub escapes: Vec<Escape>,
    /// Per ring: the earliest [`Escape::head_due`] over the escapes
    /// landing on it.
    pub due: Vec<u64>,
}

impl Bridges {
    /// Append `flit`, ready at cycle `ready`, to escape `e`.
    #[inline]
    pub fn push(&mut self, e: usize, ready: u64, flit: FlitRef) {
        let esc = &mut self.escapes[e];
        esc.fifo.push_back((ready, flit));
        let due = &mut self.due[esc.to_ring as usize];
        *due = (*due).min(ready);
    }

    /// The `(tx_pipe, rx_depth)` gauges of `side` at cycle `now`.
    ///
    /// The observatory streams were pinned when each direction was an
    /// outbox on the sending ring plus an inbox on the receiving one,
    /// and a cycle's pushes moved from the first to the second only
    /// after every ring had run. Two rules keep them:
    ///
    /// * the periodic sample, at the end of cycle `now` (`in_cycle`),
    ///   leaves the flits pushed in that cycle out of `rx_depth`;
    /// * `Network::finish_metrics`, between ticks, leaves them out of
    ///   `tx_pipe`.
    pub fn gauges(&self, side: &BridgeSide, now: u64, in_cycle: bool) -> (u32, u32) {
        let (out, inbound) = (&self.escapes[side.out()], &self.escapes[side.inbound()]);
        let (tx_fresh, rx_fresh) = if in_cycle {
            (0, inbound.pushed_at(now))
        } else {
            (out.pushed_at(now), 0)
        };
        (
            (out.fifo.len() - tx_fresh) as u32,
            (inbound.fifo.len() - rx_fresh) as u32,
        )
    }

    /// Flits inside the escapes, for conservation checks.
    pub fn resident_flits(&self) -> u64 {
        self.escapes
            .iter()
            .map(|e| (e.fifo.len() + e.reserved.len()) as u64)
            .sum()
    }
}

/// What one shard keeps of one bridge side.
#[derive(Debug, Clone)]
pub(crate) struct BridgeSide {
    /// The bridge this side belongs to.
    pub bridge: BridgeId,
    /// Which side of the bridge this is (0 = `a`, 1 = `b`).
    pub side: u8,
    /// Shard-local index of this side's endpoint node.
    pub endpoint: u32,
    /// Whether this side is in deadlock resolution mode.
    pub drm: bool,
    /// Times this side has entered DRM since construction (monotonic;
    /// the per-side split of `NetStats::drm_entries`).
    pub drm_entries: u64,
}

impl BridgeSide {
    /// Index of the escape this side sends into.
    #[inline]
    pub fn out(&self) -> usize {
        2 * self.bridge.index() + self.side as usize
    }

    /// Index of the escape that lands on this side.
    #[inline]
    pub fn inbound(&self) -> usize {
        self.out() ^ 1
    }
}
