//! The network engine: cross-station arbitration, I-tag/E-tag
//! starvation and livelock protection, ring bridges and SWAP deadlock
//! resolution — the complete §4 of the paper, cycle by cycle.
//!
//! # One thread, one cycle
//!
//! The engine is decomposed along the paper's own fault line: rings are
//! independent conveyor belts coupled *only* at bridges. Each ring is a
//! self-contained ring shard (`RingShard`) owning its lanes, bitsets,
//! node interfaces, its sides' DRM state, counters and telemetry
//! buffer. Each bridge direction is one escape (`crate::bridge`): the
//! Tx pipeline FIFO plus the reserved escape buffers, owned by
//! [`Network`] next to the shards. So is the flit slab
//! (`crate::slab`): every flit's body is stored there once, from
//! [`Network::enqueue`] to [`Network::pop_delivered`], and lanes,
//! queues and escapes hold 8-byte handles to it.
//!
//! [`Network::tick`] advances one cycle on the calling thread. The
//! engine's cycle (`crate::epoch::run_cycle`) runs two phases over
//! every shard:
//!
//! 1. **Deliver** — each shard drains the matured flits of the escapes
//!    landing on its ring into endpoint inject queues.
//! 2. **Per-ring cycle** — zero-hop deliveries, the station sweep,
//!    lane advance, bridge intake (pushed into the outbound escapes)
//!    and DRM bookkeeping.
//!
//! The bridge work of both phases is indexed by event like the station
//! sweep below: a side where nothing is due in a cycle is not visited
//! in it (DESIGN.md §21).
//!
//! Every caller-visible drain — the metrics sample and its commit,
//! watchdog evaluation, trace emission in ring order, utilization
//! samples — happens in the epilogue at the end of the same cycle, once
//! every ring has run. The observer half of [`Network`] (metrics,
//! watchdogs, flight recorder, wait-graph evidence) lives in
//! `crate::observe`. A host scales by running many
//! networks side by side, one per thread, not by splitting one network
//! over threads. [`Network::tick_epoch`] is `k` calls of
//! [`Network::tick`].
//!
//! # Event-indexed tick
//!
//! On-the-fly flits have priority (paper §4.1), so a cross station is
//! a strict no-op for a lane pass unless one of three things is true:
//! the flit in the slot leaves the ring *at this station*, the slot
//! carries an I-tag, or the head of a node interface's inject queue
//! wants a slot *on this lane*. A flit merely passing by is not an
//! event. Each lane keeps an exit calendar that yields the first set
//! per cycle ([`crate::ring`]), each shard keeps one station bitset
//! per cached head intent ([`crate::bits::BitRing`]), and the sweep
//! visits only stations whose merged word is non-zero.
//!
//! Debug builds check those indices against the truth they summarise
//! in every cycle: each occupied slot's calendar bit against the route
//! table's exit for its flit, the I-tag words against the tagged slots,
//! each node's cached intent against its routed queue head, and, after
//! every visited station, that no event appeared ahead of the sweep in
//! the word it had already read. A stale index fails at the cycle it
//! goes wrong, in every debug-build test run.

use crate::bridge::Bridges;
use crate::config::NetworkConfig;
use crate::epoch;
use crate::error::{EngineError, EnqueueError};
use crate::exec::{ExecMode, TickMode};
use crate::flit::{Flit, FlitClass};
use crate::ids::{NodeId, RingId};
use crate::observe::Observatory;
use crate::route::RouteTable;
use crate::shard::{EngineShared, NodeState, RingShard};
use crate::slab::FlitSlab;
use crate::stats::{DeliveryHists, NetStats, RingCounters, TickProfile};
use crate::topology::{NodeKind, Topology};
use noc_sim::{BandwidthProbe, Cycle};
use noc_telemetry::{FlitEvent, NullSink, TraceSink, NO_FLIT, NO_LANE};

/// When a tracing sink is attached, every ring's occupancy is sampled
/// ([`FlitEvent::RingUtil`]) once per this many cycles. Irrelevant for
/// `NullSink` networks: the sampling site compiles away.
const UTIL_SAMPLE_PERIOD: u64 = 8;

/// The bufferless multi-ring network.
///
/// Create one from a [`crate::Topology`] and a
/// [`NetworkConfig`], then alternate [`Network::enqueue`] /
/// [`Network::tick`] / [`Network::pop_delivered`].
///
/// # Example
///
/// ```
/// use noc_core::{BridgeConfig, FlitClass, NetworkConfig, Network,
///                RingKind, TopologyBuilder};
///
/// let mut b = TopologyBuilder::new();
/// let die = b.add_chiplet("die0");
/// let ring = b.add_ring(die, RingKind::Full, 8)?;
/// let src = b.add_node("src", ring, 0)?;
/// let dst = b.add_node("dst", ring, 4)?;
/// let mut net = Network::new(b.build()?, NetworkConfig::default());
///
/// net.enqueue(src, dst, FlitClass::Request, 64, 0).unwrap();
/// for _ in 0..20 {
///     net.tick();
/// }
/// let flit = net.pop_delivered(dst).expect("delivered");
/// assert_eq!(flit.src, src);
/// # Ok::<(), noc_core::TopologyError>(())
/// ```
///
/// # Telemetry
///
/// The network is generic over a [`TraceSink`] that receives a
/// [`FlitEvent`] for every lifecycle step (enqueue, arbitration loss,
/// I-tag placement/claim, injection, deflection, E-tag reservation,
/// bridge entry/stall, SWAP, ejection, delivery) plus periodic ring
/// occupancy samples. The default sink is [`NullSink`], whose
/// `ENABLED = false` constant deletes every emission site at
/// monomorphization — a `Network<NullSink>` ticks exactly as fast as a
/// network compiled without telemetry. Attach a real sink with
/// [`Network::with_sink`]:
///
/// ```
/// use noc_core::{FlitClass, Network, NetworkConfig, RingKind, TopologyBuilder};
/// use noc_telemetry::RingBufferSink;
///
/// let mut b = TopologyBuilder::new();
/// let die = b.add_chiplet("die0");
/// let ring = b.add_ring(die, RingKind::Full, 8)?;
/// let src = b.add_node("src", ring, 0)?;
/// let dst = b.add_node("dst", ring, 4)?;
/// let mut net = Network::with_sink(
///     b.build()?,
///     NetworkConfig::default(),
///     RingBufferSink::new(4096),
/// );
/// net.enqueue(src, dst, FlitClass::Request, 64, 0).unwrap();
/// for _ in 0..20 {
///     net.tick();
/// }
/// assert_eq!(net.sink().counts().delivered, 1);
/// # Ok::<(), noc_core::TopologyError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Network<S: TraceSink = NullSink> {
    pub(crate) shared: EngineShared,
    pub(crate) shards: Vec<RingShard>,
    pub(crate) bridges: Bridges,
    /// Every resident flit's body; everything else holds handles.
    pub(crate) slab: FlitSlab,
    /// The delivery histograms of [`NetStats`], one set for the whole
    /// network; each ring keeps only its counters.
    hists: DeliveryHists,
    pub(crate) now: Cycle,
    /// The last cycle that ended with no flit resident.
    settled_at: u64,
    next_flit_id: u64,
    sink: S,
    /// The observer half (`crate::observe`); `None` until switched on.
    pub(crate) observatory: Option<Observatory>,
}

impl Network {
    /// Instantiate the runtime network for a validated topology, with
    /// no telemetry ([`NullSink`]).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.inject_queue_cap` or `cfg.eject_queue_cap` is 0
    /// (a [`SocSpec`](crate::SocSpec) with either fails to compile
    /// instead).
    pub fn new(topo: Topology, cfg: NetworkConfig) -> Self {
        Self::with_sink(topo, cfg, NullSink)
    }
}

impl<S: TraceSink> Network<S> {
    /// Instantiate with an explicit [`TraceSink`] receiving the full
    /// flit-lifecycle event stream (see the type-level docs).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.inject_queue_cap` or `cfg.eject_queue_cap` is 0
    /// (a [`SocSpec`](crate::SocSpec) with either fails to compile
    /// instead).
    pub fn with_sink(topo: Topology, cfg: NetworkConfig, sink: S) -> Self {
        let (shared, shards, bridges) = crate::shard::build(topo, cfg);
        Network {
            shared,
            shards,
            bridges,
            slab: FlitSlab::default(),
            hists: DeliveryHists::new(),
            now: Cycle::ZERO,
            settled_at: 0,
            next_flit_id: 0,
            sink,
            observatory: None,
        }
    }

    /// [`Network::with_sink`]; the [`TickMode`] and the [`ExecMode`]
    /// are accepted and ignored (there is one tick, and it runs on the
    /// calling thread).
    pub fn with_exec(
        topo: Topology,
        cfg: NetworkConfig,
        _tick: TickMode,
        _exec: ExecMode,
        sink: S,
    ) -> Self {
        Self::with_sink(topo, cfg, sink)
    }

    /// The attached trace sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Consume the network, returning the sink (flushed).
    pub fn into_sink(mut self) -> S {
        self.sink.flush();
        self.sink
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The topology the network was built from.
    pub fn topology(&self) -> &Topology {
        &self.shared.topo
    }

    /// The network's configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.shared.cfg
    }

    /// Accumulated statistics: every ring's counters summed, beside
    /// the network's delivery histograms.
    pub fn stats(&self) -> NetStats {
        let mut counters = RingCounters::default();
        for shard in &self.shards {
            counters.add(&shard.counters);
        }
        NetStats::from_parts(&counters, self.hists.clone())
    }

    /// The merged [`NetStats::fingerprint`] — the canonical value for
    /// run-to-run identity checks.
    pub fn fingerprint(&self) -> Vec<u64> {
        self.stats().fingerprint()
    }

    /// Engine instrumentation: how much station-visiting work the tick
    /// loop has done (independent of what the network simulated),
    /// merged across shards.
    pub fn tick_profile(&self) -> TickProfile {
        let mut p = TickProfile {
            ticks: self.now.raw(),
            ..TickProfile::default()
        };
        for shard in &self.shards {
            p.merge_from(&shard.profile);
        }
        p
    }

    /// Route table (exit stations, ring-change distances).
    pub fn route(&self) -> &RouteTable {
        &self.shared.route
    }

    /// Flits inside the network (queued, on rings, in bridges) that have
    /// not yet been delivered to a device.
    pub fn in_flight(&self) -> u64 {
        let (enqueued, delivered) = self.shards.iter().fold((0u64, 0u64), |(e, d), sh| {
            (e + sh.counters.enqueued, d + sh.counters.delivered)
        });
        enqueued - delivered
    }

    fn node(&self, id: NodeId) -> Option<&NodeState> {
        let loc = self.shared.node_loc.get(id.index())?;
        Some(&self.shards[loc.ring as usize].nodes[loc.local as usize])
    }

    /// Whether `src` currently has room to enqueue another flit.
    pub fn can_enqueue(&self, src: NodeId) -> bool {
        self.node(src).is_some_and(|n| !n.inject.is_full())
    }

    /// Enqueue a new single-flit transaction at `src`'s Inject Queue.
    /// Returns the flit id for correlation.
    ///
    /// # Errors
    ///
    /// Fails when the node ids are invalid, equal, not devices, or the
    /// Inject Queue is full (backpressure: retry next cycle).
    pub fn enqueue(
        &mut self,
        src: NodeId,
        dst: NodeId,
        class: FlitClass,
        payload_bytes: u32,
        token: u64,
    ) -> Result<u64, EnqueueError> {
        if src.index() >= self.shared.node_loc.len() {
            return Err(EnqueueError::UnknownNode { node: src });
        }
        if dst.index() >= self.shared.node_loc.len() {
            return Err(EnqueueError::UnknownNode { node: dst });
        }
        if src == dst {
            return Err(EnqueueError::SelfSend { node: src });
        }
        if !matches!(self.node(src).expect("checked").kind, NodeKind::Device) {
            return Err(EnqueueError::NotAddressable { node: src });
        }
        if !matches!(self.node(dst).expect("checked").kind, NodeKind::Device) {
            return Err(EnqueueError::NotAddressable { node: dst });
        }
        let id = self.next_flit_id;
        let loc = self.shared.node_loc[src.index()];
        let station = {
            let shard = &mut self.shards[loc.ring as usize];
            let ni = loc.local as usize;
            if shard.nodes[ni].inject.is_full() {
                return Err(EnqueueError::InjectQueueFull { node: src });
            }
            let flit = Flit::new(id, src, dst, class, payload_bytes, token, self.now);
            let flit = self.slab.alloc(flit);
            shard.nodes[ni].inject.push(flit).expect("checked not full");
            shard.counters.enqueued += 1;
            if shard.nodes[ni].inject.len() == 1 {
                shard.head_changed(&self.shared, ni);
            }
            shard.nodes[ni].station
        };
        self.next_flit_id += 1;
        if S::ENABLED {
            let event = FlitEvent::Enqueued {
                node: src.0,
                class: class.index() as u8,
            };
            let shard = &self.shards[loc.ring as usize];
            let record = shard.record(self.now.raw(), id, station, NO_LANE, event);
            self.sink.emit(record);
        }
        Ok(id)
    }

    /// Pop the oldest flit delivered to device `node`, if any. Devices
    /// must drain their Eject Queues or the network will backpressure
    /// (E-tag deflections).
    pub fn pop_delivered(&mut self, node: NodeId) -> Option<Flit> {
        let loc = *self.shared.node_loc.get(node.index())?;
        let shard = &mut self.shards[loc.ring as usize];
        let eject = &mut shard.nodes[loc.local as usize].eject;
        let flit = eject.pop();
        if eject.is_empty() {
            // A bridge endpoint's bit is never set; clearing it is moot.
            shard.delivered.clear(loc.local as usize);
        }
        flit.map(|flit| self.slab.free(flit))
    }

    /// Exactly the devices with at least one delivered flit waiting —
    /// those [`Network::pop_delivered`] would return `Some` for — in
    /// ring order, then ascending id within a ring. Costs one word test
    /// per 64 nodes plus one step per device yielded, so a consumer can
    /// drain only who has mail instead of polling every endpoint.
    pub fn nodes_with_deliveries(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.shards
            .iter()
            .flat_map(|sh| sh.delivered.iter_ones().map(move |i| sh.nodes[i].id))
    }

    /// Number of delivered flits waiting at device `node`.
    pub fn delivered_len(&self, node: NodeId) -> usize {
        self.node(node).map_or(0, |n| n.eject.len())
    }

    /// Occupied inject-queue depth at `node`.
    pub fn inject_len(&self, node: NodeId) -> usize {
        self.node(node).map_or(0, |n| n.inject.len())
    }

    /// Per-(ring, station) deflection counts from the engine's built-in
    /// diagnostics — available on any network, [`NullSink`] included —
    /// shaped for [`crate::render::ascii_heatmap`].
    pub fn deflection_cells(&self) -> Vec<Vec<u64>> {
        self.station_cells(|n| n.deflected_here)
    }

    /// Per-(ring, station) I-tag placement counts, shaped for
    /// [`crate::render::ascii_heatmap`].
    pub fn itag_cells(&self) -> Vec<Vec<u64>> {
        self.station_cells(|n| n.itags_here)
    }

    fn station_cells(&self, value: impl Fn(&NodeState) -> u64) -> Vec<Vec<u64>> {
        self.shards
            .iter()
            .map(|sh| {
                let mut row = vec![0u64; sh.ring.stations as usize];
                for n in &sh.nodes {
                    row[n.station as usize] += value(n);
                }
                row
            })
            .collect()
    }

    /// Current consecutive-injection-failure count at `node`
    /// (diagnostics; feeds I-tag placement and L2 deadlock detection).
    pub fn starve_of(&self, node: NodeId) -> u32 {
        self.node(node).map_or(0, |n| n.starve)
    }

    /// Flits currently riding ring `ring`.
    pub fn ring_occupancy(&self, ring: RingId) -> usize {
        self.shards[ring.index()].ring.occupancy()
    }

    /// Per-device bandwidth probes (present when
    /// [`NetworkConfig::probe_window`] is non-zero), ascending node id.
    pub fn probes(&self) -> impl Iterator<Item = (NodeId, &BandwidthProbe)> {
        let mut all: Vec<(NodeId, &BandwidthProbe)> = self
            .shards
            .iter()
            .flat_map(|sh| {
                sh.nodes
                    .iter()
                    .filter_map(|n| n.probe.as_deref().map(|p| (n.id, p)))
            })
            .collect();
        all.sort_by_key(|(id, _)| id.0);
        all.into_iter()
    }

    /// Flush probe windows at end of run.
    pub fn finish_probes(&mut self) {
        let now = self.now;
        for shard in &mut self.shards {
            for node in &mut shard.nodes {
                if let Some(p) = &mut node.probe {
                    p.finish(now);
                }
            }
        }
    }

    /// Total flits physically present anywhere inside the network
    /// (queues, slots, bridge pipelines, escape buffers). Used by
    /// conservation checks.
    pub fn count_resident_flits(&self) -> u64 {
        let shards: u64 = self.shards.iter().map(RingShard::resident_flits).sum();
        shards + self.bridges.resident_flits()
    }

    /// The flit slab's `(live, slots)`: bodies of resident flits, and
    /// slots ever allocated. Every flit inside the network has its one
    /// body there, so `live` equals [`Network::count_resident_flits`]
    /// between ticks; freed slots are reused, so `slots` is the most
    /// flits ever resident at once — bounded by load, not run length.
    pub fn flit_slab_usage(&self) -> (usize, usize) {
        (self.slab.live(), self.slab.slots())
    }

    // ------------------------------------------------------------------
    // Simulation step
    // ------------------------------------------------------------------

    /// Advance the network by one clock cycle (see the module docs for
    /// the phase structure), then run the cycle's epilogue.
    pub fn tick(&mut self) {
        self.now += 1;
        // The one place the sink type picks the cycle's TRACE parameter.
        let (shards, bridges) = (&mut self.shards, &mut self.bridges);
        let (slab, hists) = (&mut self.slab, &mut self.hists);
        if S::ENABLED {
            epoch::run_cycle::<true>(shards, bridges, slab, hists, &self.shared, self.now);
        } else {
            epoch::run_cycle::<false>(shards, bridges, slab, hists, &self.shared, self.now);
        }
        if self.slab.live() == 0 {
            self.settled_at = self.now.raw();
        }
        if S::ENABLED || self.observatory.is_some() {
            self.epilogue();
        }
    }

    /// Cycles since the network last made progress while flits were
    /// resident: since the later of the last cycle that ended empty and
    /// the last inject onto a ring, eject into an Eject Queue, bridge
    /// intake or bridge delivery. Deflections and I-tag moves are not
    /// progress, so a wedged fabric counts up however busy its rings
    /// look; so does one whose devices stop draining their Eject
    /// Queues. Reads 0 while nothing is resident. Always on: each
    /// progress event pays one store and the tick one compare, and no
    /// fingerprint includes it.
    pub fn stalled_for(&self) -> u64 {
        if self.slab.live() == 0 {
            return 0;
        }
        let progress = self
            .shards
            .iter()
            .fold(self.settled_at, |p, sh| p.max(sh.progress_at));
        self.now.raw() - progress
    }

    /// The largest `k` [`Network::tick_epoch`] accepts: the minimum
    /// bridge traversal latency over the topology (at least 1), or
    /// `u64::MAX` when there are no bridges.
    pub fn max_epoch(&self) -> u64 {
        self.shared.max_epoch
    }

    /// Advance the network by `k` cycles: `k` calls of
    /// [`Network::tick`].
    ///
    /// # Errors
    ///
    /// * [`EngineError::EmptyEpoch`] — `k == 0`.
    /// * [`EngineError::EpochTooLong`] — `k > `[`Network::max_epoch`].
    pub fn tick_epoch(&mut self, k: u64) -> Result<(), EngineError> {
        if k == 0 {
            return Err(EngineError::EmptyEpoch);
        }
        let max = self.max_epoch();
        if k > max {
            return Err(EngineError::EpochTooLong { requested: k, max });
        }
        for _ in 0..k {
            self.tick();
        }
        Ok(())
    }

    /// The end of every cycle, once every ring has run it: at a metrics
    /// period boundary sample every ring and commit the snapshot, feed
    /// the cycle's trace records to the recorder and sink in ring
    /// order, then, at [`UTIL_SAMPLE_PERIOD`] boundaries, emit each
    /// ring's occupancy.
    fn epilogue(&mut self) {
        self.sample_if_due();
        if !S::ENABLED {
            return;
        }
        let mut recorder = self.observatory.as_mut().and_then(|o| o.recorder.as_mut());
        for shard in &mut self.shards {
            let batch = shard.trace.records();
            if !batch.is_empty() {
                if let Some(rec) = recorder.as_deref_mut() {
                    rec.record_events(batch);
                }
                self.sink.emit_all(batch);
                shard.trace.clear();
            }
        }
        let cycle = self.now.raw();
        if cycle.is_multiple_of(UTIL_SAMPLE_PERIOD) {
            for shard in &self.shards {
                let event = FlitEvent::RingUtil {
                    occupied: shard.ring.occupancy() as u16,
                    capacity: shard.ring.capacity() as u16,
                };
                self.sink
                    .emit(shard.record(cycle, NO_FLIT, 0, NO_LANE, event));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BridgeConfig;
    use crate::ids::RingKind;
    use crate::topology::TopologyBuilder;

    #[test]
    fn epoch_bounds_are_typed_errors() {
        // Two full rings joined by one bridge of latency 3.
        let mut b = TopologyBuilder::new();
        let d0 = b.add_chiplet("d0");
        let d1 = b.add_chiplet("d1");
        let r0 = b.add_ring(d0, RingKind::Full, 8).unwrap();
        let r1 = b.add_ring(d1, RingKind::Full, 8).unwrap();
        let src = b.add_node("a0", r0, 1).unwrap();
        let dst = b.add_node("a1", r1, 1).unwrap();
        b.add_bridge(BridgeConfig::l2().with_latency(3), r0, 6, r1, 6)
            .unwrap();
        let mut net = Network::new(b.build().unwrap(), NetworkConfig::default());
        assert_eq!(net.max_epoch(), 3);

        match net.tick_epoch(0) {
            Err(EngineError::EmptyEpoch) => {}
            other => panic!("k = 0 must be EmptyEpoch, got {other:?}"),
        }
        match net.tick_epoch(4) {
            Err(EngineError::EpochTooLong {
                requested: 4,
                max: 3,
            }) => {}
            other => panic!("k = 4 must be EpochTooLong, got {other:?}"),
        }
        // Rejected epochs must not advance time or touch state.
        assert_eq!(net.now().raw(), 0);
        net.enqueue(src, dst, FlitClass::Data, 64, 1).unwrap();
        net.tick_epoch(3).expect("k = max_epoch is legal");
        assert_eq!(net.now().raw(), 3);

        // A bridgeless fabric has no pipeline to outrun: any K is legal.
        let mut b = TopologyBuilder::new();
        let die = b.add_chiplet("die");
        let r = b.add_ring(die, RingKind::Full, 8).unwrap();
        let a = b.add_node("a", r, 0).unwrap();
        let z = b.add_node("z", r, 4).unwrap();
        let mut lone = Network::new(b.build().unwrap(), NetworkConfig::default());
        assert_eq!(lone.max_epoch(), u64::MAX);
        lone.enqueue(a, z, FlitClass::Data, 64, 1).unwrap();
        lone.tick_epoch(64).unwrap();
        assert_eq!(lone.now().raw(), 64);
        assert!(lone.pop_delivered(z).is_some());
    }

    #[test]
    fn stalled_for_counts_cycles_without_progress_while_flits_are_resident() {
        // Two full rings joined by one bridge of latency 3.
        let mut b = TopologyBuilder::new();
        let d0 = b.add_chiplet("d0");
        let d1 = b.add_chiplet("d1");
        let r0 = b.add_ring(d0, RingKind::Full, 8).unwrap();
        let r1 = b.add_ring(d1, RingKind::Full, 8).unwrap();
        let src = b.add_node("a0", r0, 1).unwrap();
        let dst = b.add_node("a1", r1, 1).unwrap();
        b.add_bridge(BridgeConfig::l2().with_latency(3), r0, 6, r1, 6)
            .unwrap();
        let mut net = Network::new(b.build().unwrap(), NetworkConfig::default());
        for _ in 0..20 {
            net.tick();
        }
        assert_eq!(net.stalled_for(), 0, "an empty network is not stalled");
        net.enqueue(src, dst, FlitClass::Data, 64, 1).unwrap();
        assert_eq!(net.stalled_for(), 0);
        let mut trail = Vec::new();
        while net.delivered_len(dst) == 0 {
            net.tick();
            trail.push(net.stalled_for());
        }
        // Injected (0), three hops to the bridge, ejected into its
        // endpoint and taken in (0), three cycles in the pipeline,
        // delivered and re-injected (0), three hops, ejected (0).
        assert_eq!(trail, vec![0, 1, 2, 0, 1, 2, 0, 1, 2, 0]);
        // A device that leaves its mail unread holds the flit resident.
        for _ in 0..10 {
            net.tick();
        }
        assert_eq!(net.stalled_for(), 10);
        assert!(net.pop_delivered(dst).is_some());
        assert_eq!(net.stalled_for(), 0);
        net.tick();
        assert_eq!(net.stalled_for(), 0);
    }
}
