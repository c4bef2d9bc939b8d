//! The network engine: cross-station arbitration, I-tag/E-tag
//! starvation and livelock protection, ring bridges and SWAP deadlock
//! resolution — the complete §4 of the paper, cycle by cycle.
//!
//! # One thread, one cycle
//!
//! The engine is decomposed along the paper's own fault line: rings are
//! independent conveyor belts coupled *only* at bridges. Each ring is a
//! self-contained ring shard (`RingShard`) owning its lanes,
//! bitsets, node interfaces, bridge sides, statistics and telemetry
//! buffer; [`Network`] itself is just the orchestrator.
//!
//! [`Network::tick`] advances one cycle on the calling thread. The
//! engine's cycle (`crate::epoch::run_cycle`) runs four phases over
//! every shard:
//!
//! 1. **Deliver** — each shard drains matured flits from its bridge
//!    inboxes (`BridgeSide::rx`) into endpoint inject queues.
//! 2. **Barrier** — the sides that were popped from tell their peers
//!    the new inbox depth, so intake can enforce pipeline capacity
//!    without reading another shard.
//! 3. **Per-ring cycle** — zero-hop deliveries, the station sweep,
//!    lane advance, bridge intake (staged into `tx` outboxes) and DRM
//!    bookkeeping, entirely within one shard.
//! 4. **Barrier** — the `tx` outboxes that were staged into are
//!    appended onto peer `rx` inboxes.
//!
//! The bridge phases (1, 2, 4 and the intake/DRM part of 3) are
//! indexed by event like the station sweep below: a side where nothing
//! is due in a cycle is not visited in it (DESIGN.md §21).
//!
//! Every caller-visible drain — metrics commits, watchdog evaluation,
//! trace emission in ring order, utilization samples — happens in the
//! epilogue at the end of the same cycle. A host scales by running many
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

use crate::bridge::BridgeSide;
use crate::census::{self, WaitCensus};
use crate::config::NetworkConfig;
use crate::epoch;
use crate::error::{EngineError, EnqueueError};
use crate::exec::{ExecMode, TickMode};
use crate::flit::{Flit, FlitClass};
use crate::ids::{NodeId, RingId};
use crate::route::RouteTable;
use crate::shard::{EngineShared, NodeState, RingShard};
use crate::stats::{NetStats, TickProfile};
use crate::topology::{NodeKind, Topology};
use noc_sim::{BandwidthProbe, Cycle};
use noc_telemetry::{
    merge_ranked, BundleEnv, BundleMeta, FlightRecorder, FlitEvent, FlowRecord, HealthConfig,
    HealthMonitor, MetricsRegistry, NullSink, PostmortemBundle, RecorderConfig, RecorderView,
    RingWindow, TraceRecord, TraceSink, WaitGraphSample, WaitNode, WaitStats, NO_FLIT, NO_LANE,
};

/// When a tracing sink is attached, every ring's occupancy is sampled
/// ([`FlitEvent::RingUtil`]) once per this many cycles. Irrelevant for
/// `NullSink` networks: the sampling site compiles away.
const UTIL_SAMPLE_PERIOD: u64 = 8;

/// Online observability state: the snapshot registry plus the watchdog
/// monitor, attached by [`Network::enable_metrics`] /
/// [`Network::enable_observatory`], optionally extended with the
/// flight recorder and its captured postmortem bundles by
/// [`Network::enable_flight_recorder`].
#[derive(Debug, Clone)]
struct Observatory {
    registry: MetricsRegistry,
    monitor: HealthMonitor,
    /// The flight recorder's event ring and limits; `None` unless it
    /// was enabled. Its snapshot window is the tail of `registry`.
    recorder: Option<FlightRecorder>,
    /// Watchdog-triggered bundles, capped at
    /// [`RecorderConfig::max_bundles`]. Explicit
    /// [`Network::dump_postmortem`] calls are not stored here.
    bundles: Vec<PostmortemBundle>,
    /// Gauges of the most recent wait-graph sample fed through
    /// [`Network::observe_wait`], for the diagnostics stall summary.
    last_wait: Option<WaitStats>,
}

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
    shared: EngineShared,
    shards: Vec<RingShard>,
    now: Cycle,
    next_flit_id: u64,
    sink: S,
    observatory: Option<Observatory>,
}

impl Network {
    /// Instantiate the runtime network for a validated topology, with
    /// no telemetry ([`NullSink`]).
    pub fn new(topo: Topology, cfg: NetworkConfig) -> Self {
        Self::with_sink(topo, cfg, NullSink)
    }
}

impl<S: TraceSink> Network<S> {
    /// Instantiate with an explicit [`TraceSink`] receiving the full
    /// flit-lifecycle event stream (see the type-level docs).
    pub fn with_sink(topo: Topology, cfg: NetworkConfig, sink: S) -> Self {
        let (shared, shards) = crate::shard::build(topo, cfg);
        Network {
            shared,
            shards,
            now: Cycle::ZERO,
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

    // ------------------------------------------------------------------
    // Observatory: online metrics + health watchdogs
    // ------------------------------------------------------------------

    /// Switch on online metrics sampling (and the default health
    /// watchdogs): every `period` cycles each shard stages one
    /// per-ring sample during the per-ring phase, and the engine
    /// commits them as one
    /// [`MetricsSnapshot`](noc_telemetry::MetricsSnapshot) at the end
    /// of the cycle, in ring order.
    ///
    /// Counters observed before this call are excluded from the
    /// windows; enabling mid-run starts a fresh series.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn enable_metrics(&mut self, period: u64) {
        self.enable_observatory(period, HealthConfig::default());
    }

    /// [`Network::enable_metrics`] with explicit watchdog thresholds.
    pub fn enable_observatory(&mut self, period: u64, cfg: HealthConfig) {
        for shard in &mut self.shards {
            shard.metrics_period = period;
            shard.rebase_metrics();
        }
        self.observatory = Some(Observatory {
            registry: MetricsRegistry::new(period),
            monitor: HealthMonitor::new(cfg),
            recorder: None,
            bundles: Vec::new(),
            last_wait: None,
        });
    }

    /// [`Network::enable_observatory`] plus the flight recorder: each
    /// shard additionally keeps a deterministic Space-Saving flow table
    /// and per-link utilization row, the last
    /// [`RecorderConfig::snapshot_window`] snapshots of the (new)
    /// registry form the recorder's history, (when a tracing sink is
    /// attached) trace events are retained in its bounded event ring,
    /// and any watchdog latching a new verdict captures a
    /// [`PostmortemBundle`] — up to [`RecorderConfig::max_bundles`],
    /// readable via [`Network::bundles`].
    ///
    /// The registry itself then keeps only that window: at least the
    /// newest max(R, 1) snapshots and fewer than twice that, however
    /// long the run. Read the whole series through
    /// [`MetricsRegistry::since`] as it is committed, and the commit
    /// count through [`MetricsRegistry::committed`].
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn enable_flight_recorder(
        &mut self,
        period: u64,
        health: HealthConfig,
        recorder: RecorderConfig,
    ) {
        self.enable_observatory(period, health);
        for shard in &mut self.shards {
            shard.enable_flow_accounting(recorder.flow_top_k, recorder.charge_stride);
        }
        let obs = self.observatory.as_mut().expect("just enabled");
        obs.registry.retain_last(recorder.snapshot_window);
        obs.recorder = Some(FlightRecorder::new(recorder));
    }

    /// The flight recorder, if enabled: its limits, its event ring and
    /// its snapshot window (the tail of [`Network::metrics`]).
    pub fn recorder(&self) -> Option<RecorderView<'_>> {
        let obs = self.observatory.as_ref()?;
        Some(obs.recorder.as_ref()?.view(&obs.registry))
    }

    /// Watchdog-triggered postmortem bundles captured so far, in
    /// capture order.
    pub fn bundles(&self) -> &[PostmortemBundle] {
        self.observatory
            .as_ref()
            .map_or(&[], |o| o.bundles.as_slice())
    }

    /// The heaviest (src, dst) flows across all rings: per-shard
    /// Space-Saving tables merged and cut to `k`. Empty unless
    /// [`Network::enable_flight_recorder`] switched flow accounting on.
    /// Deliveries are current to the last sampling window; a still
    /// circulating flit's deflections are attributed at charge-stride
    /// sweeps ([`RecorderConfig::charge_stride`]) and become exact
    /// after [`Network::finish_metrics`] or inside a watchdog bundle.
    pub fn flow_top(&self, k: usize) -> Vec<FlowRecord> {
        let tables: Vec<_> = self.shards.iter().map(|s| &s.flows).collect();
        merge_ranked(&tables, k)
    }

    /// Per-(ring, station) link occupancy samples accumulated at
    /// sampling boundaries, shaped for
    /// [`crate::render::ascii_heatmap`]. All zeros unless flow
    /// accounting is on.
    pub fn link_cells(&self) -> Vec<Vec<u64>> {
        self.shards.iter().map(|s| s.link_util.clone()).collect()
    }

    /// Freeze the current state into a [`PostmortemBundle`] without
    /// waiting for a watchdog: recent snapshots and events from the
    /// flight recorder (empty if it is off), merged flow top-K,
    /// per-link heat, every verdict so far, and the config needed for
    /// replay. Returns `None` when the observatory is
    /// disabled. Explicit dumps are not stored in [`Network::bundles`]
    /// and not counted against [`RecorderConfig::max_bundles`]; unlike
    /// watchdog captures they do not force a charge sweep, so in-flight
    /// deflection attribution may lag by up to
    /// [`RecorderConfig::charge_stride`] windows.
    pub fn dump_postmortem(&self, reason: &str) -> Option<PostmortemBundle> {
        self.observatory.as_ref()?;
        Some(self.capture_bundle(reason, self.now.raw()))
    }

    /// Build a bundle from the current observatory state, stamped with
    /// `cycle` (the watchdog paths pass the cycle of the sample that
    /// latched). Caller guarantees the observatory is enabled.
    fn capture_bundle(&self, reason: &str, cycle: u64) -> PostmortemBundle {
        let obs = self.observatory.as_ref().expect("caller checked");
        let rec = self.recorder();
        let flow_top_k = rec.map_or(0, |r| r.config().flow_top_k);
        PostmortemBundle {
            meta: BundleMeta {
                reason: reason.to_string(),
                cycle,
                stations: self.shards.iter().map(|s| s.ring.stations).collect(),
                flow_top_k,
                snapshots_seen: rec.map_or(0, |r| r.snapshots_seen()),
                events_seen: rec.map_or(0, |r| r.events_seen()),
                config: serde_json::to_value(&self.shared.cfg),
            },
            env: BundleEnv {
                // The one tick; exported bundles keep naming it.
                tick_mode: format!("{:?}", TickMode::Fast),
            },
            verdicts: obs.monitor.verdicts().to_vec(),
            flows: self.flow_top(flow_top_k),
            links: self.link_cells(),
            snapshots: rec.map_or_else(Vec::new, |r| r.snapshots().as_slice().to_vec()),
            events: rec.map_or_else(Vec::new, |r| r.events().copied().collect()),
            // The network has no transaction layer; TxnFabric attaches
            // its tail exemplars and wedge reports when it re-dumps a
            // bundle.
            txn_exemplars: Vec::new(),
            wedges: Vec::new(),
        }
    }

    /// The snapshot registry, if the observatory is enabled: the whole
    /// series, or with the flight recorder attached only its window
    /// (see [`Network::enable_flight_recorder`]).
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.observatory.as_ref().map(|o| &o.registry)
    }

    /// The health monitor, if the observatory is enabled.
    pub fn health(&self) -> Option<&HealthMonitor> {
        self.observatory.as_ref().map(|o| &o.monitor)
    }

    /// Human-readable watchdog report: every verdict so far, or a
    /// one-line all-clear. Works on any network; says so when the
    /// observatory is off.
    pub fn health_report(&self) -> String {
        let mut out = match self.health() {
            Some(monitor) => monitor.report(),
            None => "health: observatory disabled (call enable_metrics)\n".to_string(),
        };
        if let Some(ws) = self.wait_stats() {
            out.push_str(&format!(
                "stalls: {} at cycle {} — blocked {} ring / {} escape / {} window / {} reassembly, \
                 oldest frozen {} cycles, {} cyclic sccs\n",
                ws.verdict,
                ws.cycle,
                ws.blocked[0],
                ws.blocked[1],
                ws.blocked[2],
                ws.blocked[3],
                ws.oldest_frozen,
                ws.cyclic_sccs
            ));
        }
        out
    }

    /// Snapshot the engine-side evidence the stall-forensics edges
    /// need: per-ring transit demand toward each bridge side, every
    /// bridge escape resource's occupancy and target ring, and the
    /// placement of every in-network packet (see [`crate::census`]).
    /// Runs between ticks, iterating in ascending ring/side order, so
    /// the census is deterministic.
    pub fn wait_census(&self) -> WaitCensus {
        let mut out = WaitCensus {
            rings: Vec::with_capacity(self.shards.len()),
            escapes: Vec::with_capacity(2 * self.shared.side_loc.len()),
            packet_where: Vec::new(),
        };
        for shard in &self.shards {
            shard.wait_census_part(&self.shared, &mut out);
        }
        for [a, b] in self.bridge_sides() {
            out.escapes.push(census::escape_row(a, b));
            out.escapes.push(census::escape_row(b, a));
        }
        out.seal();
        out
    }

    /// The stall-forensics fast path: append one [`WaitNode`] per ring,
    /// then one per bridge escape resource, in ascending [`ResourceId`]
    /// order, with its occupancy, capacity and monotone progress — the
    /// only place those are read. No per-flit walks: cheap enough to
    /// run at every observatory boundary; the full
    /// [`Network::wait_census`] is only taken when a freeze streak
    /// warrants edge construction.
    ///
    /// [`ResourceId`]: noc_telemetry::ResourceId
    pub fn push_wait_nodes(&self, nodes: &mut Vec<WaitNode>) {
        nodes.extend(self.shards.iter().map(RingShard::ring_node));
        for [a, b] in self.bridge_sides() {
            nodes.push(census::escape_node(a, b));
            nodes.push(census::escape_node(b, a));
        }
    }

    /// Both sides of every bridge, side a first, in ascending bridge id
    /// — the canonical (bridge, side) order, straight from the fixed
    /// pairing of bridge sides.
    fn bridge_sides(&self) -> impl Iterator<Item = [&BridgeSide; 2]> {
        self.shared
            .side_loc
            .iter()
            .map(|locs| locs.map(|l| &self.shards[l.ring as usize].sides[l.idx as usize]))
    }

    /// Feed one wait-graph sample from the stall-forensics detector to
    /// the health monitor's `deadlock-suspected` watchdog, remembering
    /// its gauges for [`NocDiagnostics::health_summary`] stall lines.
    /// A newly latched verdict captures a postmortem bundle exactly
    /// like the snapshot watchdogs do. Returns how many new verdicts
    /// fired. No-op (returns 0) when the observatory is disabled.
    ///
    /// [`NocDiagnostics::health_summary`]: crate::diag::NocDiagnostics::health_summary
    pub fn observe_wait(&mut self, sample: &WaitGraphSample) -> usize {
        let Some(obs) = self.observatory.as_mut() else {
            return 0;
        };
        let fired = obs.monitor.observe_wait(sample);
        let can_capture = obs
            .recorder
            .as_ref()
            .is_some_and(|r| obs.bundles.len() < r.config().max_bundles);
        if fired > 0 && can_capture {
            for shard in &mut self.shards {
                shard.charge_and_flush();
            }
            let bundle = self.capture_bundle("watchdog: CRIT:deadlock-suspected", sample.cycle);
            self.observatory
                .as_mut()
                .expect("checked above")
                .bundles
                .push(bundle);
        }
        fired
    }

    /// Remember the latest wait-graph gauges (called by the transaction
    /// fabric alongside [`Network::observe_wait`], and usable directly
    /// by embedders running their own tracker).
    pub fn note_wait_stats(&mut self, stats: WaitStats) {
        if let Some(obs) = self.observatory.as_mut() {
            obs.last_wait = Some(stats);
        }
    }

    /// Gauges of the most recent wait-graph sample observed, if any.
    pub fn wait_stats(&self) -> Option<&WaitStats> {
        self.observatory.as_ref().and_then(|o| o.last_wait.as_ref())
    }

    /// Force one final sample covering the partial window since the
    /// last periodic snapshot (plus any post-tick enqueues), so the
    /// committed windows sum exactly to the run's [`NetStats`] totals.
    /// Call at end of run before reading [`Network::metrics`].
    pub fn finish_metrics(&mut self) {
        let Some(period) = self.observatory.as_ref().map(|o| o.registry.period()) else {
            return;
        };
        let now = self.now;
        for shard in &mut self.shards {
            shard.charge_and_flush();
            shard.sample_metrics(&self.shared, now);
        }
        self.commit_staged(now.raw() % period);
    }

    /// Take the sample row every shard staged this cycle and commit it
    /// as one snapshot, in ascending ring id.
    fn commit_staged(&mut self, window: u64) {
        let cycle = self.now.raw();
        let in_flight = self.in_flight();
        let rings: Vec<RingWindow> = self
            .shards
            .iter_mut()
            .map(|s| s.staged_window.take().expect("all shards sample together"))
            .collect();
        let obs = self.observatory.as_mut().expect("caller checked");
        let snap = obs.registry.commit(cycle, window, in_flight, rings);
        let new_verdicts = obs.monitor.observe(snap);
        let mut capture_reason = None;
        if let Some(rec) = &obs.recorder {
            // A newly latched verdict triggers a capture, up to the
            // configured bundle cap.
            if new_verdicts > 0 && obs.bundles.len() < rec.config().max_bundles {
                let vs = obs.monitor.verdicts();
                let fired: Vec<String> = vs[vs.len() - new_verdicts..]
                    .iter()
                    .map(|v| format!("{}:{}", v.severity, v.rule))
                    .collect();
                capture_reason = Some(format!("watchdog: {}", fired.join(", ")));
            }
        }
        if let Some(reason) = capture_reason {
            // Make the flow tables exact as of this cycle before the
            // bundle freezes them — a watchdog can latch between
            // charge-stride sweeps, and the flow that wedged the
            // network may never deliver (so only sweeps see it).
            for shard in &mut self.shards {
                shard.charge_and_flush();
            }
            let bundle = self.capture_bundle(&reason, cycle);
            self.observatory
                .as_mut()
                .expect("checked above")
                .bundles
                .push(bundle);
        }
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

    /// Accumulated statistics: the per-shard blocks merged in ring
    /// order.
    pub fn stats(&self) -> NetStats {
        let mut total = NetStats::new();
        for shard in &self.shards {
            total.merge_from(&shard.stats);
        }
        total
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
            (e + sh.stats.enqueued.get(), d + sh.stats.delivered.get())
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
        let flit = Flit::new(id, src, dst, class, payload_bytes, token, self.now);
        let loc = self.shared.node_loc[src.index()];
        let station = {
            let shard = &mut self.shards[loc.ring as usize];
            let ni = loc.local as usize;
            if shard.nodes[ni].inject.push(flit).is_err() {
                return Err(EnqueueError::InjectQueueFull { node: src });
            }
            shard.stats.enqueued.inc();
            if shard.nodes[ni].inject.len() == 1 {
                shard.head_changed(&self.shared, ni);
            }
            shard.nodes[ni].station
        };
        self.next_flit_id += 1;
        if S::ENABLED {
            self.sink.emit(TraceRecord {
                cycle: self.now.raw(),
                flit: id,
                ring: loc.ring,
                station,
                lane: NO_LANE,
                event: FlitEvent::Enqueued {
                    node: src.0,
                    class: class.index() as u8,
                },
            });
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
        flit
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

    /// Outstanding E-tag reservations at `node` (diagnostics).
    pub fn etag_backlog(&self, node: NodeId) -> usize {
        self.node(node).map_or(0, |n| n.etag_list.len())
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
                    .filter_map(|n| n.probe.as_ref().map(|p| (n.id, p)))
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
    /// (queues, slots, mailboxes, escape buffers). Used by conservation
    /// checks.
    pub fn count_resident_flits(&self) -> u64 {
        self.shards.iter().map(RingShard::resident_flits).sum()
    }

    // ------------------------------------------------------------------
    // Simulation step
    // ------------------------------------------------------------------

    /// Advance the network by one clock cycle (see the module docs for
    /// the phase structure), then run the cycle's epilogue.
    pub fn tick(&mut self) {
        self.now += 1;
        // The one place the sink type picks the cycle's TRACE parameter.
        if S::ENABLED {
            epoch::run_cycle::<true>(&mut self.shards, &self.shared, self.now);
        } else {
            epoch::run_cycle::<false>(&mut self.shards, &self.shared, self.now);
        }
        if S::ENABLED || self.observatory.is_some() {
            self.epilogue();
        }
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

    /// The end of every cycle: commit the cycle's staged metrics sample
    /// (if any), feed its trace records to the recorder and sink in ring
    /// order, then, at [`UTIL_SAMPLE_PERIOD`] boundaries, emit each
    /// ring's occupancy.
    fn epilogue(&mut self) {
        if self
            .shards
            .first()
            .is_some_and(|s| s.staged_window.is_some())
        {
            let obs = self
                .observatory
                .as_ref()
                .expect("only an observatory samples");
            self.commit_staged(obs.registry.period());
        }
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
                self.sink.emit(TraceRecord {
                    cycle,
                    flit: NO_FLIT,
                    ring: shard.ring.id.0,
                    station: 0,
                    lane: NO_LANE,
                    event: FlitEvent::RingUtil {
                        occupied: shard.ring.occupancy() as u16,
                        capacity: shard.ring.capacity() as u16,
                    },
                });
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
}
