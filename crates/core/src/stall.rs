//! What holds a stalled network: [`Network::stall_report`].
//!
//! [`Network::stalled_for`] says *that* nothing has moved; the report
//! says *where* the flits sit. It names the resources a wedge holds —
//! full lanes with the I-tags circulating on them, full bridge escapes
//! with their pipeline and reserved occupancy against the caps, and the
//! bridge endpoints whose inject heads are starving, with their DRM
//! state. It only reads the network (no fingerprint, counter or stream
//! sees it), so it can be taken at any cycle, wedged or not.

use crate::ids::{BridgeId, Direction, NodeId, RingId};
use crate::network::Network;
use noc_telemetry::TraceSink;
use std::fmt;

/// A lane with every slot occupied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FullLane {
    /// The ring the lane belongs to.
    pub ring: RingId,
    /// The lane's travel direction (its index within the ring).
    pub direction: Direction,
    /// Slots on the lane, all occupied.
    pub slots: usize,
    /// The nodes the lane's I-tagged slots are reserved for, ascending.
    pub itag_owners: Vec<NodeId>,
}

/// A bridge direction that cannot take another flit: its Tx pipeline is
/// at `buffer_cap`, or its reserved escape buffers (if it has any) are
/// at `reserved_cap`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FullEscape {
    /// The bridge.
    pub bridge: BridgeId,
    /// The sending side (0 = `a`, 1 = `b`).
    pub side: u8,
    /// The ring the crossing lands on.
    pub to_ring: RingId,
    /// Flits in the Tx pipeline.
    pub pipeline: usize,
    /// The pipeline's cap.
    pub buffer_cap: usize,
    /// Flits in the reserved escape buffers.
    pub reserved: usize,
    /// The reserved buffers' cap (0 on bridges without SWAP).
    pub reserved_cap: usize,
}

/// A bridge endpoint whose inject head has lost arbitration for at
/// least one cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StarvingEndpoint {
    /// The endpoint node.
    pub node: NodeId,
    /// Its bridge.
    pub bridge: BridgeId,
    /// Which side of the bridge it feeds (0 = `a`, 1 = `b`).
    pub side: u8,
    /// Consecutive cycles its inject head has failed to win a slot.
    pub starve: u32,
    /// Flits waiting in its Inject Queue.
    pub queued: usize,
    /// Whether its side is in deadlock resolution mode now.
    pub drm: bool,
    /// Times its side has entered DRM since construction.
    pub drm_entries: u64,
}

/// The resources a stalled network holds, from
/// [`Network::stall_report`]. Each list is in ascending id order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallReport {
    /// The cycle the report was taken at.
    pub cycle: u64,
    /// [`Network::stalled_for`] at that cycle.
    pub stalled_for: u64,
    /// Flits enqueued and not yet delivered.
    pub in_flight: u64,
    /// Lanes with every slot occupied.
    pub full_lanes: Vec<FullLane>,
    /// Bridge directions that cannot take another flit.
    pub full_escapes: Vec<FullEscape>,
    /// Bridge endpoints whose inject head is starving.
    pub starving: Vec<StarvingEndpoint>,
}

impl StallReport {
    /// Whether the report names a full lane or a full escape: the
    /// resources a wedge's wait cycle runs through.
    pub fn names_a_full_resource(&self) -> bool {
        !self.full_lanes.is_empty() || !self.full_escapes.is_empty()
    }
}

impl fmt::Display for StallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cycle {}: {} flits in flight, no progress for {} cycles",
            self.cycle, self.in_flight, self.stalled_for
        )?;
        writeln!(f, "full lanes: {}", self.full_lanes.len())?;
        for l in &self.full_lanes {
            write!(
                f,
                "  {} {:?} {}/{} I-tags:",
                l.ring, l.direction, l.slots, l.slots
            )?;
            for owner in &l.itag_owners {
                write!(f, " {owner}")?;
            }
            writeln!(f)?;
        }
        writeln!(f, "full escapes: {}", self.full_escapes.len())?;
        for e in &self.full_escapes {
            writeln!(
                f,
                "  {} side {} → {}: pipeline {}/{}, reserved {}/{}",
                e.bridge, e.side, e.to_ring, e.pipeline, e.buffer_cap, e.reserved, e.reserved_cap
            )?;
        }
        writeln!(f, "starving bridge endpoints: {}", self.starving.len())?;
        for s in &self.starving {
            writeln!(
                f,
                "  {} ({} side {}): starve {}, {} queued, DRM {} ({} entries)",
                s.node,
                s.bridge,
                s.side,
                s.starve,
                s.queued,
                if s.drm { "on" } else { "off" },
                s.drm_entries
            )?;
        }
        Ok(())
    }
}

impl<S: TraceSink> Network<S> {
    /// What holds the network now: its full lanes with their I-tag
    /// owners, its full bridge escapes, and its starving bridge
    /// endpoints with their DRM state. Read-only, and in no
    /// fingerprint; meant for the cycle [`Network::stalled_for`]
    /// passes a caller's window.
    pub fn stall_report(&self) -> StallReport {
        let mut full_lanes = Vec::new();
        let mut starving = Vec::new();
        for shard in &self.shards {
            for lane in &shard.ring.lanes {
                if lane.occupancy() == lane.len() {
                    let mut itag_owners: Vec<NodeId> = lane.itag_owners().collect();
                    itag_owners.sort_unstable();
                    full_lanes.push(FullLane {
                        ring: shard.ring.id,
                        direction: lane.direction(),
                        slots: lane.len(),
                        itag_owners,
                    });
                }
            }
            for side in &shard.sides {
                let node = &shard.nodes[side.endpoint as usize];
                if node.starve > 0 {
                    starving.push(StarvingEndpoint {
                        node: node.id,
                        bridge: side.bridge,
                        side: side.side,
                        starve: node.starve,
                        queued: node.inject.len(),
                        drm: side.drm,
                        drm_entries: side.drm_entries,
                    });
                }
            }
        }
        starving.sort_unstable_by_key(|s| s.node);
        let full_escapes = self
            .bridges
            .escapes
            .iter()
            .enumerate()
            .filter(|(_, e)| {
                e.fifo.len() >= e.cfg.buffer_cap
                    || (e.cfg.reserved_cap > 0 && e.reserved.len() >= e.cfg.reserved_cap)
            })
            .map(|(i, e)| FullEscape {
                bridge: BridgeId((i / 2) as u16),
                side: (i % 2) as u8,
                to_ring: RingId(e.to_ring),
                pipeline: e.fifo.len(),
                buffer_cap: e.cfg.buffer_cap,
                reserved: e.reserved.len(),
                reserved_cap: e.cfg.reserved_cap,
            })
            .collect();
        StallReport {
            cycle: self.now.raw(),
            stalled_for: self.stalled_for(),
            in_flight: self.in_flight(),
            full_lanes,
            full_escapes,
            starving,
        }
    }
}
