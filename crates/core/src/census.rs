//! Wait census: the engine-side evidence feed of the stall-forensics
//! detector.
//!
//! At an observatory sample boundary the transaction layer needs to
//! know, for every ring and bridge escape resource: how full it is,
//! whether it is still moving, and which packets hold or want it. The
//! engine owns that state; this module is the typed snapshot it hands
//! upward. The census carries *mechanical facts only* — occupancy,
//! capacity, monotone progress counters, per-packet placement — and
//! the `noc-txn` fabric combines them with its own window/reassembly
//! state into the wait-for graph of
//! `noc_telemetry::waitgraph`.
//!
//! # Determinism
//!
//! [`Network::wait_census`](crate::Network::wait_census) runs between
//! ticks (the same settled point the metrics snapshots commit at),
//! iterating rings, lanes and bridge sides in ascending id order. The
//! census is therefore a pure function of the deterministic engine
//! state: byte-identical run to run.

use crate::bridge::BridgeSide;
use crate::flit::PacketToken;
use noc_telemetry::{ResourceId, WaitNode};
use serde::{Deserialize, Serialize};

/// Where a packet's in-network flits currently sit, from the
/// perspective of the resource they hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PacketPlace {
    /// On a ring's lanes, or queued at a node of that ring waiting to
    /// inject (either way the packet's forward progress is pinned to
    /// that ring's slot pool).
    Ring {
        /// Ring id.
        ring: u16,
    },
    /// Inside one bridge side's escape resource (outbound pipe, escape
    /// buffers, or the in-flight mailbox toward the peer).
    Escape {
        /// Bridge id.
        bridge: u16,
        /// Side (0 or 1).
        side: u8,
    },
}

/// Transit demand from one ring toward one bridge side: flits resident
/// on the ring whose route exits through that side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransitCensus {
    /// The bridge the flits want to cross.
    pub bridge: u16,
    /// Which side of it they approach.
    pub side: u8,
    /// How many resident flits route through it.
    pub count: u64,
    /// Smallest packet id among them (deterministic representative).
    pub min_packet: u64,
}

/// One ring's slot pool at the census boundary.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RingCensus {
    /// Ring id.
    pub ring: u16,
    /// Flits resident on the ring's lanes.
    pub occupancy: u64,
    /// Total lane slots.
    pub capacity: u64,
    /// Monotone progress: injections + deliveries + bridge crossings
    /// on this ring since construction. A non-empty ring whose counter
    /// stops advancing is frozen; a full ring under live load keeps
    /// advancing even though its occupancy never changes.
    pub progress: u64,
    /// Per-bridge-side transit demand, ascending (bridge, side).
    pub transit: Vec<TransitCensus>,
}

/// One bridge side's escape resource at the census boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EscapeCensus {
    /// Bridge id.
    pub bridge: u16,
    /// Side (0 or 1) — the side flits *enter* from.
    pub side: u8,
    /// Ring this side sits on.
    pub ring: u16,
    /// Ring the crossing lands on (the peer side's ring) — the
    /// resource this escape waits for.
    pub to_ring: u16,
    /// Flits resident in the resource: staged `tx` + escape `reserved`
    /// on this side, plus the peer's inbound mailbox.
    pub occupancy: u64,
    /// Pipe capacity + escape-buffer capacity.
    pub capacity: u64,
    /// Monotone progress: flits ever pushed into the pipe on this side
    /// plus flits ever drained out at the peer. Either end moving
    /// counts.
    pub progress: u64,
    /// Smallest packet id resident in the resource, if any.
    pub min_packet: Option<u64>,
    /// Whether this side is currently in deadlock-resolution mode.
    pub drm: bool,
}

/// The full engine-side evidence snapshot. See the module docs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WaitCensus {
    /// Cycle the census was taken at.
    pub cycle: u64,
    /// Every ring, ascending id.
    pub rings: Vec<RingCensus>,
    /// Every bridge side, ascending (bridge, side).
    pub escapes: Vec<EscapeCensus>,
    /// Placement of every in-network flit's packet: sorted, unique
    /// `(packet, place)` pairs. A packet spread across three resources
    /// contributes three pairs. Decoded from flit tokens via
    /// [`PacketToken`]; meaningful only for traffic that encodes
    /// packet tokens (the transaction layer does, raw flit tests need
    /// not).
    pub packet_where: Vec<(u64, PacketPlace)>,
}

impl WaitCensus {
    /// Every place holding flits of `packet`, in sorted order.
    pub fn places_of(&self, packet: u64) -> impl Iterator<Item = PacketPlace> + '_ {
        let start = self.packet_where.partition_point(|&(p, _)| p < packet);
        self.packet_where[start..]
            .iter()
            .take_while(move |&&(p, _)| p == packet)
            .map(|&(_, place)| place)
    }

    /// The ring census for `ring`, if present.
    pub fn ring(&self, ring: u16) -> Option<&RingCensus> {
        self.rings.iter().find(|r| r.ring == ring)
    }

    /// The escape census for `(bridge, side)`, if present.
    pub fn escape(&self, bridge: u16, side: u8) -> Option<&EscapeCensus> {
        self.escapes
            .iter()
            .find(|e| e.bridge == bridge && e.side == side)
    }

    /// Canonicalize `packet_where`: sort and deduplicate. Called once
    /// by the builder after all shards contributed.
    pub(crate) fn seal(&mut self) {
        self.packet_where.sort_unstable();
        self.packet_where.dedup();
    }
}

/// Decode the packet id a flit belongs to.
#[inline]
pub(crate) fn packet_of(token: u64) -> u64 {
    PacketToken::decode(token).packet
}

/// The wait-graph node of bridge side `p`'s escape resource: its
/// outbound half (staged `tx` plus escape buffers) and the flits in
/// flight toward its peer (`peer.rx`) — a side's pipe physically
/// straddles both shards, which is why the engine, not a shard, reads
/// these. Occupancy, capacity and monotone progress (flits pushed in on
/// this side plus flits drained out at the peer: either end moving
/// counts) are O(1) reads.
pub(crate) fn escape_node(p: &BridgeSide, peer: &BridgeSide) -> WaitNode {
    WaitNode {
        id: ResourceId::Escape {
            bridge: p.bridge.index() as u32,
            side: p.side,
        },
        occupancy: (p.tx.len() + p.reserved.len() + peer.rx.len()) as u64,
        capacity: p.cfg.buffer_cap as u64 + p.cfg.reserved_cap as u64,
        progress: p.tx_pushed + peer.rx_popped,
    }
}

/// The census row of bridge side `p`: [`escape_node`]'s readings plus
/// the rings on either end, the DRM state and the smallest resident
/// packet id (the one reading that walks individual flits).
pub(crate) fn escape_row(p: &BridgeSide, peer: &BridgeSide) -> EscapeCensus {
    let node = escape_node(p, peer);
    let min_packet =
        p.tx.iter()
            .map(|(_, f)| f)
            .chain(&p.reserved)
            .chain(peer.rx.iter().map(|(_, f)| f))
            .map(|f| packet_of(f.token))
            .min();
    EscapeCensus {
        bridge: p.bridge.index() as u16,
        side: p.side,
        ring: peer.peer.ring,
        to_ring: p.peer.ring,
        occupancy: node.occupancy,
        capacity: node.capacity,
        progress: node.progress,
        min_packet,
        drm: p.drm,
    }
}
