//! Wait census: the engine-side evidence feed of the stall-forensics
//! detector.
//!
//! At an observatory sample boundary the transaction layer needs to
//! know, for every ring and bridge escape resource: how full it is,
//! whether it is still moving, and which packets hold or want it. The
//! engine owns that state. Occupancy, capacity and monotone progress
//! reach the detector as one [`WaitNode`] per resource, read by
//! [`Network::push_wait_nodes`](crate::Network::push_wait_nodes); the
//! census here is the typed snapshot of what the *edges* need — each
//! ring's transit demand toward each bridge side, each escape's
//! occupancy and target ring, and per-packet placement. The `noc-txn`
//! fabric combines both with its own window/reassembly state into the
//! wait-for graph of `noc_telemetry::waitgraph`.
//!
//! # Determinism
//!
//! [`Network::wait_census`](crate::Network::wait_census) runs between
//! ticks (the same settled point the metrics snapshots commit at),
//! iterating rings and lanes in ascending id order, then the escapes in
//! (bridge, side) order. The census is therefore a pure function of the
//! deterministic engine state: byte-identical run to run.

use crate::bridge::Escape;
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
    /// Inside the escape resource of one bridge direction, named by the
    /// side flits enter from (its Tx pipeline or reserved buffers).
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
    /// Smallest packet id among them (deterministic representative).
    pub min_packet: u64,
}

/// One ring's slot pool at the census boundary.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RingCensus {
    /// Ring id.
    pub ring: u16,
    /// Per-bridge-side transit demand, ascending (bridge, side).
    pub transit: Vec<TransitCensus>,
}

/// One bridge direction's escape resource at the census boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EscapeCensus {
    /// Bridge id.
    pub bridge: u16,
    /// Side (0 or 1) — the side flits *enter* from.
    pub side: u8,
    /// Ring the crossing lands on (the peer side's ring) — the
    /// resource this escape waits for.
    pub to_ring: u16,
    /// Flits resident in the resource: its Tx pipeline plus its
    /// reserved buffers.
    pub occupancy: u64,
    /// Smallest packet id resident in the resource, if any.
    pub min_packet: Option<u64>,
}

/// The full engine-side evidence snapshot. See the module docs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WaitCensus {
    /// Every ring, ascending id.
    pub rings: Vec<RingCensus>,
    /// Every escape, ascending (bridge, side).
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

/// The wait-graph node of escape `e` (index `2 * bridge + side`, see
/// [`crate::bridge`]): occupancy, capacity and monotone progress (flits
/// pushed in plus flits delivered out: either end moving counts), all
/// O(1) reads.
pub(crate) fn escape_node(e: usize, esc: &Escape) -> WaitNode {
    WaitNode {
        id: ResourceId::Escape {
            bridge: (e / 2) as u32,
            side: (e % 2) as u8,
        },
        occupancy: (esc.fifo.len() + esc.reserved.len()) as u64,
        capacity: esc.cfg.buffer_cap as u64 + esc.cfg.reserved_cap as u64,
        progress: esc.pushed + esc.popped,
    }
}

/// Contribute escape `e` to `census`: its row ([`escape_node`]'s
/// occupancy, the ring the crossing lands on, the smallest resident
/// packet id) and the placement of every flit inside it.
pub(crate) fn escape_part(e: usize, esc: &Escape, census: &mut WaitCensus) {
    let (bridge, side) = ((e / 2) as u16, (e % 2) as u8);
    let place = PacketPlace::Escape { bridge, side };
    let mut min_packet: Option<u64> = None;
    for f in esc.fifo.iter().map(|(_, f)| f).chain(&esc.reserved) {
        let packet = packet_of(f.token);
        census.packet_where.push((packet, place));
        min_packet = Some(min_packet.map_or(packet, |m| m.min(packet)));
    }
    census.escapes.push(EscapeCensus {
        bridge,
        side,
        to_ring: esc.to_ring,
        occupancy: escape_node(e, esc).occupancy,
        min_packet,
    });
}
