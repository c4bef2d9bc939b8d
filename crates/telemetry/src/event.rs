//! The flit-lifecycle event taxonomy.
//!
//! Events mirror the mechanisms of the paper's §4 one-to-one, and each
//! lifecycle counter-bearing event corresponds exactly to one
//! `NetStats` counter increment in the engine — the reconciliation
//! differential tests hold the two accountings equal. Coordinates are
//! raw integers (`ring`, `station`, `lane`, node ids as `u32`) rather
//! than `noc-core` id types so this crate can sit *below* the engine in
//! the dependency graph.

use serde::{Deserialize, Serialize};

/// `lane` value for events not tied to a specific lane (enqueues,
/// zero-hop local deliveries, bridge pipelines).
pub const NO_LANE: u8 = u8::MAX;

/// `flit` value for records not tied to a single flit (ring
/// utilization samples).
pub const NO_FLIT: u64 = u64::MAX;

/// What happened to a flit (or a ring) at one point in its lifecycle.
///
/// Lifecycle, in order: [`Enqueued`](FlitEvent::Enqueued) →
/// ([`InjectLost`](FlitEvent::InjectLost) /
/// [`ITagSet`](FlitEvent::ITagSet))* →
/// [`Injected`](FlitEvent::Injected) (possibly via
/// [`ITagClaimed`](FlitEvent::ITagClaimed)) →
/// ([`Deflected`](FlitEvent::Deflected) with
/// [`ETagReserved`](FlitEvent::ETagReserved) on the first lap)* →
/// [`Ejected`](FlitEvent::Ejected) — then either
/// [`Delivered`](FlitEvent::Delivered) at a device, or
/// [`BridgeEnqueued`](FlitEvent::BridgeEnqueued) at a bridge endpoint
/// and the cycle repeats on the next ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlitEvent {
    /// Accepted into a node's Inject Queue. `class` is the
    /// `FlitClass` index (0=REQ, 1=RSP, 2=SNP, 3=DAT).
    Enqueued {
        /// Source node id.
        node: u32,
        /// Flit class index.
        class: u8,
    },
    /// Won a ring slot (or the zero-hop local-delivery path).
    Injected {
        /// Injecting node id.
        node: u32,
    },
    /// Head flit wanted this lane but lost arbitration this cycle
    /// (feeds the starvation counter behind I-tag placement).
    InjectLost {
        /// Losing node id.
        node: u32,
    },
    /// An I-tag was placed on a passing slot for a starving injector.
    ITagSet {
        /// Owning node id.
        node: u32,
    },
    /// A reserved slot came back around and its owner injected into it.
    ITagClaimed {
        /// Owning node id.
        node: u32,
    },
    /// Failed to eject at the exit station; sent onward for another
    /// lap.
    Deflected {
        /// Intended target node id.
        target: u32,
    },
    /// First deflection: the next freed eject buffer at the target was
    /// reserved for this flit.
    ETagReserved {
        /// Target node id holding the reservation.
        target: u32,
    },
    /// Entered a bridge's transfer pipeline.
    BridgeEnqueued {
        /// Bridge id.
        bridge: u16,
    },
    /// A matured bridge flit could not leave the pipeline because the
    /// destination endpoint's Inject Queue is full (backpressure).
    BridgeStalled {
        /// Bridge id.
        bridge: u16,
    },
    /// SWAP fired (§4.4): Eject-Queue head escaped to a reserved Tx
    /// buffer, this flit took its place, and the Inject-Queue head
    /// went out on the vacated slot in the same cycle.
    SwapTriggered {
        /// Bridge-endpoint node id.
        node: u32,
    },
    /// Left the ring into an eject queue (device or bridge endpoint).
    Ejected {
        /// Ejecting node id.
        node: u32,
    },
    /// Reached its destination device (final lifecycle event).
    Delivered {
        /// Destination node id.
        node: u32,
        /// Flit class index.
        class: u8,
    },
    /// Periodic per-ring occupancy sample (`flit` is [`NO_FLIT`]).
    RingUtil {
        /// Occupied slots across the ring's lanes.
        occupied: u16,
        /// Total slots across the ring's lanes.
        capacity: u16,
    },
}

impl FlitEvent {
    /// This kind's position in declaration order — also the position
    /// of its counter in [`EventCounts::counters_mut`].
    fn kind_index(&self) -> usize {
        match self {
            FlitEvent::Enqueued { .. } => 0,
            FlitEvent::Injected { .. } => 1,
            FlitEvent::InjectLost { .. } => 2,
            FlitEvent::ITagSet { .. } => 3,
            FlitEvent::ITagClaimed { .. } => 4,
            FlitEvent::Deflected { .. } => 5,
            FlitEvent::ETagReserved { .. } => 6,
            FlitEvent::BridgeEnqueued { .. } => 7,
            FlitEvent::BridgeStalled { .. } => 8,
            FlitEvent::SwapTriggered { .. } => 9,
            FlitEvent::Ejected { .. } => 10,
            FlitEvent::Delivered { .. } => 11,
            FlitEvent::RingUtil { .. } => 12,
        }
    }
}

/// One emitted event, stamped with when and where it happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Simulation cycle.
    pub cycle: u64,
    /// Flit id, or [`NO_FLIT`] for ring samples.
    pub flit: u64,
    /// Ring index.
    pub ring: u16,
    /// Station index on the ring.
    pub station: u16,
    /// Lane index, or [`NO_LANE`] when no lane is involved.
    pub lane: u8,
    /// What happened.
    pub event: FlitEvent,
}

/// Per-kind event totals. Unlike a bounded record buffer these never
/// drop, so they reconcile exactly against `NetStats` counters no
/// matter how long the run was.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventCounts {
    /// [`FlitEvent::Enqueued`] events.
    pub enqueued: u64,
    /// [`FlitEvent::Injected`] events.
    pub injected: u64,
    /// [`FlitEvent::InjectLost`] events.
    pub inject_lost: u64,
    /// [`FlitEvent::ITagSet`] events.
    pub itag_set: u64,
    /// [`FlitEvent::ITagClaimed`] events.
    pub itag_claimed: u64,
    /// [`FlitEvent::Deflected`] events.
    pub deflected: u64,
    /// [`FlitEvent::ETagReserved`] events.
    pub etag_reserved: u64,
    /// [`FlitEvent::BridgeEnqueued`] events.
    pub bridge_enqueued: u64,
    /// [`FlitEvent::BridgeStalled`] events.
    pub bridge_stalled: u64,
    /// [`FlitEvent::SwapTriggered`] events.
    pub swap_triggered: u64,
    /// [`FlitEvent::Ejected`] events.
    pub ejected: u64,
    /// [`FlitEvent::Delivered`] events.
    pub delivered: u64,
    /// [`FlitEvent::RingUtil`] samples.
    pub ring_util: u64,
}

impl EventCounts {
    /// Bump the counter for `event`'s kind.
    #[inline]
    pub fn record(&mut self, event: &FlitEvent) {
        self.record_all([event]);
    }

    /// Bump the counter for each event's kind. An indexed add rather
    /// than a `match` that bumps one field: the `match` compiles to an
    /// indirect jump, which a trace stream's mix of kinds mispredicts.
    /// The counter array is taken once per call, so a run of events
    /// costs one add each.
    #[inline]
    pub(crate) fn record_all<'a>(&mut self, events: impl IntoIterator<Item = &'a FlitEvent>) {
        let counters = self.counters_mut();
        for event in events {
            *counters[event.kind_index()] += 1;
        }
    }

    /// Every counter, in [`FlitEvent`] declaration order, so
    /// [`FlitEvent::kind_index`] indexes it.
    fn counters_mut(&mut self) -> [&mut u64; 13] {
        [
            &mut self.enqueued,
            &mut self.injected,
            &mut self.inject_lost,
            &mut self.itag_set,
            &mut self.itag_claimed,
            &mut self.deflected,
            &mut self.etag_reserved,
            &mut self.bridge_enqueued,
            &mut self.bridge_stalled,
            &mut self.swap_triggered,
            &mut self.ejected,
            &mut self.delivered,
            &mut self.ring_util,
        ]
    }

    /// Total events recorded across all kinds.
    pub fn total(&self) -> u64 {
        self.enqueued
            + self.injected
            + self.inject_lost
            + self.itag_set
            + self.itag_claimed
            + self.deflected
            + self.etag_reserved
            + self.bridge_enqueued
            + self.bridge_stalled
            + self.swap_triggered
            + self.ejected
            + self.delivered
            + self.ring_util
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_track_each_kind() {
        let mut c = EventCounts::default();
        c.record(&FlitEvent::Enqueued { node: 0, class: 3 });
        c.record(&FlitEvent::Deflected { target: 1 });
        c.record(&FlitEvent::Deflected { target: 2 });
        c.record(&FlitEvent::RingUtil {
            occupied: 1,
            capacity: 8,
        });
        assert_eq!(c.enqueued, 1);
        assert_eq!(c.deflected, 2);
        assert_eq!(c.ring_util, 1);
        assert_eq!(c.total(), 4);
    }

    #[test]
    fn every_kind_bumps_its_own_counter() {
        let kinds = [
            FlitEvent::Enqueued { node: 0, class: 0 },
            FlitEvent::Injected { node: 0 },
            FlitEvent::InjectLost { node: 0 },
            FlitEvent::ITagSet { node: 0 },
            FlitEvent::ITagClaimed { node: 0 },
            FlitEvent::Deflected { target: 0 },
            FlitEvent::ETagReserved { target: 0 },
            FlitEvent::BridgeEnqueued { bridge: 0 },
            FlitEvent::BridgeStalled { bridge: 0 },
            FlitEvent::SwapTriggered { node: 0 },
            FlitEvent::Ejected { node: 0 },
            FlitEvent::Delivered { node: 0, class: 0 },
            FlitEvent::RingUtil {
                occupied: 0,
                capacity: 0,
            },
        ];
        for (n, kind) in kinds.iter().enumerate() {
            let mut c = EventCounts::default();
            c.record(kind);
            // Read by field name, not through `counters_mut`, so a
            // counter out of order in that array shows here.
            let got = [
                c.enqueued,
                c.injected,
                c.inject_lost,
                c.itag_set,
                c.itag_claimed,
                c.deflected,
                c.etag_reserved,
                c.bridge_enqueued,
                c.bridge_stalled,
                c.swap_triggered,
                c.ejected,
                c.delivered,
                c.ring_util,
            ];
            let want: Vec<u64> = (0..kinds.len()).map(|i| u64::from(i == n)).collect();
            assert_eq!(got.to_vec(), want, "{kind:?}");
        }
    }

    #[test]
    fn records_serialize_to_json() {
        let r = TraceRecord {
            cycle: 9,
            flit: 4,
            ring: 1,
            station: 3,
            lane: 0,
            event: FlitEvent::ITagSet { node: 12 },
        };
        let s = serde_json::to_string(&r).expect("serializes");
        assert!(s.contains("\"cycle\":9"), "{s}");
        assert!(s.contains("ITagSet"), "{s}");
    }
}
