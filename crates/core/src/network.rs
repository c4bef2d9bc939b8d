//! The network engine: cross-station arbitration, I-tag/E-tag
//! starvation and livelock protection, ring bridges and SWAP deadlock
//! resolution — the complete §4 of the paper, cycle by cycle.
//!
//! # One engine, one loop
//!
//! The engine is decomposed along the paper's own fault line: rings are
//! independent conveyor belts coupled *only* at bridges. Each ring is a
//! self-contained [`crate::shard::RingShard`] owning its lanes,
//! bitsets, node interfaces, bridge sides, statistics and telemetry
//! buffer; [`Network`] itself is just the orchestrator.
//!
//! Time advances in **epochs** of K cycles ([`Network::tick_epoch`]);
//! [`Network::tick`] is the one-cycle epoch. For every cycle of an
//! epoch the engine's single cycle loop (`crate::epoch::run_cycles`)
//! runs four phases:
//!
//! 1. **Deliver** — each shard drains matured flits from its bridge
//!    inboxes ([`crate::bridge::BridgeSide::rx`]) into endpoint inject
//!    queues.
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
//! is due in a cycle is not visited in it (see [`crate::bridge`]).
//!
//! Who runs the loop is the [`ExecMode`]: the calling thread over every
//! shard, or one thread per contiguous partition of the shards, the
//! barriers of cross-partition bridges carried as per-cycle mail over
//! lock-free SPSC rings. Shards share nothing mutable and the mail is a
//! pure function of the sender's state at a fixed cycle, so every
//! partitioning is bit-identical.
//!
//! Every caller-visible drain — metrics commits, watchdog evaluation,
//! trace emission in ring order, utilization samples — happens after
//! the loop, at the epoch boundary, replayed cycle by cycle. K is
//! bounded by the minimum bridge traversal latency
//! ([`Network::max_epoch`]); within that bound the deferral is
//! invisible and every observable stream is byte-identical for every K.
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
//! per cached head intent ([`crate::bits::BitRing`]), and the default
//! [`TickMode::Fast`] sweep visits only stations whose merged word is
//! non-zero. The exhaustive sweep is preserved as
//! [`TickMode::Reference`] (see [`crate::reference`]): it visits every
//! station and decides arrivals and intents from the flits themselves,
//! never from those indices, and serves as the golden model for the
//! differential tests in `tests/tick_equivalence.rs`.

use crate::bridge::BridgeSide;
use crate::census::{self, WaitCensus};
use crate::config::NetworkConfig;
use crate::epoch::{self, CycleLoop, EpochCell, EpochEngine};
use crate::error::{EngineError, EnqueueError};
use crate::exec::ExecMode;
use crate::flit::{Flit, FlitClass};
use crate::ids::{BridgeId, NodeId, RingId};
use crate::route::RouteTable;
use crate::shard::{EngineShared, NodeState, RingShard, UTIL_SAMPLE_PERIOD};
use crate::stats::{NetStats, TickProfile};
use crate::topology::{NodeKind, Topology};
use noc_sim::{BandwidthProbe, Component, Cycle};
use noc_telemetry::{
    merge_ranked, BundleEnv, BundleMeta, FlightRecorder, FlitEvent, FlowRecord, HealthConfig,
    HealthMonitor, MetricsRegistry, NullSink, PostmortemBundle, RecorderConfig, RecorderView,
    RingWindow, TraceRecord, TraceSink, WaitGraphSample, WaitNode, WaitStats, NO_FLIT, NO_LANE,
};
use std::sync::Arc;

/// Which sweep implementation [`Network::tick`] uses.
///
/// Both modes simulate the exact same network, cycle for cycle — the
/// differential test suite holds them to identical delivery streams and
/// [`NetStats::fingerprint`]s. They differ in how stations are
/// enumerated and in where a station learns what happens at it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TickMode {
    /// Event-indexed sweep: visit only stations where a flit arrives
    /// at its exit, an I-tag rides the slot, or a queue head wants the
    /// lane — read from the exit calendar and the head-intent cache.
    #[default]
    Fast,
    /// The exhaustive station walk, kept as the golden model: every
    /// station, every cycle, routing the flit in the slot and the queue
    /// heads afresh instead of reading the indices `Fast` relies on.
    Reference,
}

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
/// # Parallel execution
///
/// The cycle loop can run on a persistent worker pool, one partition
/// of the rings per thread, with [`Network::set_exec_mode`] /
/// [`ExecMode::Parallel`]. Results are bit-identical to sequential
/// execution for every thread count — see the module docs and
/// DESIGN.md §19 for why.
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
/// use noc_core::{FlitClass, Network, NetworkConfig, RingKind, TickMode,
///                TopologyBuilder};
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
///     TickMode::Fast,
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
    shared: Arc<EngineShared>,
    shards: Vec<RingShard>,
    mode: TickMode,
    exec: ExecMode,
    epoch: EpochCell,
    now: Cycle,
    ticks: u64,
    next_flit_id: u64,
    sink: S,
    observatory: Option<Observatory>,
}

impl Network {
    /// Instantiate the runtime network for a validated topology, using
    /// the default event-indexed tick ([`TickMode::Fast`]) and no
    /// telemetry ([`NullSink`]).
    pub fn new(topo: Topology, cfg: NetworkConfig) -> Self {
        Self::with_mode(topo, cfg, TickMode::Fast)
    }

    /// Instantiate with an explicit [`TickMode`] and no telemetry.
    /// `Reference` runs the golden-model exhaustive sweep — useful for
    /// differential testing and as a fallback while debugging the
    /// engine itself.
    pub fn with_mode(topo: Topology, cfg: NetworkConfig, mode: TickMode) -> Self {
        Self::with_sink(topo, cfg, mode, NullSink)
    }
}

impl<S: TraceSink> Network<S> {
    /// Instantiate with an explicit [`TraceSink`] receiving the full
    /// flit-lifecycle event stream (see the type-level docs).
    pub fn with_sink(topo: Topology, cfg: NetworkConfig, mode: TickMode, sink: S) -> Self {
        Self::with_exec(topo, cfg, mode, ExecMode::Sequential, sink)
    }

    /// Instantiate with explicit tick and execution modes.
    pub fn with_exec(
        topo: Topology,
        cfg: NetworkConfig,
        mode: TickMode,
        exec: ExecMode,
        sink: S,
    ) -> Self {
        let (shared, shards) = crate::shard::build(topo, cfg);
        Network {
            shared: Arc::new(shared),
            shards,
            mode,
            exec,
            epoch: EpochCell::default(),
            now: Cycle::ZERO,
            ticks: 0,
            next_flit_id: 0,
            sink,
            observatory: None,
        }
    }

    // ------------------------------------------------------------------
    // Observatory: online metrics + health watchdogs
    // ------------------------------------------------------------------

    /// Switch on online metrics sampling (and the default health
    /// watchdogs): every `period` cycles each shard stages one
    /// per-ring sample during the per-ring phase, and the engine
    /// commits them as one
    /// [`MetricsSnapshot`](noc_telemetry::MetricsSnapshot) at the
    /// merge barrier —
    /// in ring order, so the snapshot stream is bit-identical across
    /// [`ExecMode::Sequential`] and [`ExecMode::Parallel`].
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
    /// per-link heat, every verdict so far, and the config + execution
    /// mode needed for replay. Returns `None` when the observatory is
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
    /// `cycle` (the watchdog path passes the sample cycle, which inside
    /// an epoch epilogue can trail `self.now`). Caller guarantees the
    /// observatory is enabled.
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
                exec_mode: format!("{:?}", self.exec),
                tick_mode: format!("{:?}", self.mode),
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

    /// Snapshot the engine-side stall-forensics evidence: every ring's
    /// slot pool and every bridge escape resource with occupancy,
    /// capacity and monotone progress counters, per-ring transit demand
    /// toward each bridge side, and the placement of every in-network
    /// packet (see [`crate::census`]). Runs on owner-held state between
    /// ticks, iterating in ascending ring/side order — byte-identical
    /// across execution modes, tick modes and epoch lengths.
    pub fn wait_census(&self) -> WaitCensus {
        let mut out = WaitCensus {
            cycle: self.now.raw(),
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
    /// order — the occupancy, capacity and progress
    /// [`Network::wait_census`] reports for the same resources, without
    /// its per-flit walks and without building a census. Cheap enough
    /// to run at every observatory boundary; the full census is only
    /// taken when a freeze streak warrants edge construction.
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
        let shared = Arc::clone(&self.shared);
        for shard in &mut self.shards {
            shard.charge_and_flush();
            shard.sample_metrics(&shared, now);
        }
        self.commit_staged(now.raw() % period);
    }

    /// Pop one staged sample row (oldest; all shards sampled it at the
    /// same cycle) and commit it as one snapshot, in ascending ring id —
    /// so the snapshot stream is independent of who ran the shards.
    /// Every epoch's epilogue commits the rows its cycles staged, so
    /// none outlives a `tick_epoch` call.
    fn commit_staged(&mut self, window: u64) {
        let mut in_flight = 0u64;
        let mut cycle = 0u64;
        let rings: Vec<RingWindow> = self
            .shards
            .iter_mut()
            .map(|s| {
                let staged = s
                    .pending_metrics
                    .pop_front()
                    .expect("all shards sample together");
                // Wrapping: per-shard contributions may be "negative"
                // (see `StagedSample`); the sum is exact.
                in_flight = in_flight.wrapping_add(staged.in_flight);
                cycle = staged.cycle;
                staged.window
            })
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

    /// Mutable access to the attached trace sink.
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
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

    /// Which sweep implementation `tick` uses.
    pub fn mode(&self) -> TickMode {
        self.mode
    }

    /// Which threads run the cycle loop.
    pub fn exec_mode(&self) -> ExecMode {
        self.exec
    }

    /// Change which threads run the cycle loop. Takes effect on the
    /// next tick. A change of worker count joins the current pool's
    /// threads here; the new pool, if any, is spawned lazily. Switching
    /// modes mid-run cannot change results.
    pub fn set_exec_mode(&mut self, exec: ExecMode) {
        if exec.workers() != self.exec.workers() {
            self.epoch.0 = None;
        }
        self.exec = exec;
    }

    /// Accumulated statistics: the per-shard blocks merged in ring
    /// order (the merge is commutative, so every execution mode yields
    /// the same totals, histograms and [`NetStats::fingerprint`]).
    pub fn stats(&self) -> NetStats {
        let mut total = NetStats::new();
        for shard in &self.shards {
            total.merge_from(&shard.stats);
        }
        total
    }

    /// The merged [`NetStats::fingerprint`] — the canonical value for
    /// differential (tick-mode / exec-mode) identity checks.
    pub fn fingerprint(&self) -> Vec<u64> {
        self.stats().fingerprint()
    }

    /// Engine instrumentation: how much station-visiting work the tick
    /// loop has done (independent of what the network simulated),
    /// merged across shards.
    pub fn tick_profile(&self) -> TickProfile {
        let mut p = TickProfile {
            ticks: self.ticks,
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

    /// Deflections charged to flits targeting `node` (diagnostics).
    pub fn deflections_at(&self, node: NodeId) -> u64 {
        self.node(node).map_or(0, |n| n.deflected_here)
    }

    /// I-tags node `node` has placed on passing slots (diagnostics).
    pub fn itags_placed_by(&self, node: NodeId) -> u64 {
        self.node(node).map_or(0, |n| n.itags_here)
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

    /// Slots of `ring` currently reserved by circulating I-tags.
    pub fn ring_itag_count(&self, ring: RingId) -> usize {
        self.shards[ring.index()].ring.itag_count()
    }

    /// Whether either side of `bridge` is in deadlock resolution mode.
    pub fn bridge_in_drm(&self, bridge: BridgeId) -> bool {
        self.shared.side_loc[bridge.index()]
            .iter()
            .any(|l| self.shards[l.ring as usize].sides[l.idx as usize].drm)
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

    /// Advance the network by one clock cycle: [`Network::tick_epoch`]
    /// with `k = 1` (see the module docs for the phase structure).
    ///
    /// # Panics
    ///
    /// Panics if a parallel worker died ([`Network::tick_epoch`] is the
    /// non-panicking form).
    pub fn tick(&mut self) {
        if let Err(e) = self.tick_epoch(1) {
            panic!("{e}");
        }
    }

    /// The largest epoch [`Network::tick_epoch`] accepts: the minimum
    /// bridge traversal latency over the topology (at least 1), or
    /// `u64::MAX` when there are no bridges. Within this bound no flit
    /// can enter *and* mature in a bridge pipeline inside one epoch,
    /// which is what makes deferring all engine-side drains to the
    /// epoch boundary invisible (see `crate::epoch`).
    pub fn max_epoch(&self) -> u64 {
        self.shared.max_epoch
    }

    /// Advance the network by `k` cycles as one epoch: the cycle loop
    /// runs `k` times back to back (on the calling thread, or on the
    /// worker pool under [`ExecMode::Parallel`]), and every
    /// caller-visible drain — metrics commits, watchdog evaluation,
    /// trace-sink emission, ring-utilization samples — happens at this
    /// epoch boundary, replayed in cycle order. The resulting state,
    /// statistics, snapshot stream and telemetry stream are
    /// byte-identical to `k` one-cycle epochs; only the synchronization
    /// structure changes.
    ///
    /// # Errors
    ///
    /// * [`EngineError::EmptyEpoch`] — `k == 0`.
    /// * [`EngineError::EpochTooLong`] — `k > `[`Network::max_epoch`].
    /// * [`EngineError::Pool`] — a parallel worker died; the shards it
    ///   held are lost and the network must be discarded.
    pub fn tick_epoch(&mut self, k: u64) -> Result<(), EngineError> {
        if k == 0 {
            return Err(EngineError::EmptyEpoch);
        }
        let max = self.max_epoch();
        if k > max {
            return Err(EngineError::EpochTooLong { requested: k, max });
        }
        let first = self.now.raw() + 1;
        let last = self.now.raw() + k;
        // The one place the sink type picks the loop's TRACE parameter.
        let cycles: CycleLoop = if S::ENABLED {
            epoch::run_cycles::<true>
        } else {
            epoch::run_cycles::<false>
        };
        let workers = self.exec.workers();
        if workers == 0 {
            // The one-task case: every ring, no cross links.
            cycles(&mut self.shards, &[], &self.shared, self.mode, first, last);
        } else {
            let engine = self
                .epoch
                .0
                .get_or_insert_with(|| EpochEngine::new(&self.shared, workers));
            // `set_exec_mode` is the only writer of `exec` and drops a
            // mis-sized engine there; a second writer must do the same.
            debug_assert_eq!(engine.workers(), workers);
            let ran = engine.run(
                &mut self.shards,
                cycles,
                &self.shared,
                self.mode,
                first,
                last,
            );
            if let Err(e) = ran {
                // Drop the stale wiring so a (doomed) retry cannot see
                // half a network.
                self.epoch.0 = None;
                return Err(e.into());
            }
        }
        self.now = Cycle(last);
        self.ticks += k;
        if S::ENABLED || self.observatory.is_some() {
            self.epoch_epilogue(first, last);
        }
        Ok(())
    }

    /// Replay the epoch's deferred drains in cycle order: for each
    /// cycle, commit that cycle's staged metrics sample (if any), feed
    /// that cycle's trace records to the recorder and sink in ring
    /// order, then emit its staged ring-utilization samples. Allocates
    /// nothing; a one-cycle epoch walks the shards once (plus once more
    /// at each [`UTIL_SAMPLE_PERIOD`] boundary).
    fn epoch_epilogue(&mut self, first: u64, last: u64) {
        let window = self.observatory.as_ref().map(|o| o.registry.period());
        for t in first..=last {
            if let Some(w) = window {
                if self
                    .shards
                    .first()
                    .is_some_and(|s| s.pending_metrics.front().is_some_and(|p| p.cycle == t))
                {
                    self.commit_staged(w);
                }
            }
            if S::ENABLED {
                self.feed_traces_for_cycle(t, t == last);
                // Shards stage utilization samples only at these
                // boundaries, so no other cycle has any to emit.
                if t.is_multiple_of(UTIL_SAMPLE_PERIOD) {
                    self.emit_staged_util(t);
                }
            }
        }
    }

    /// Feed every trace record staged for cycle `t` to the recorder and
    /// sink, in ring order — the deterministic merge that makes the
    /// event stream independent of execution mode. Records within a
    /// shard's buffer are non-decreasing in cycle, so one pass per
    /// cycle consumes each buffer exactly once; on the epoch's `last`
    /// cycle everything left is that cycle's, and the buffer is emptied
    /// in the same pass.
    fn feed_traces_for_cycle(&mut self, t: u64, last: bool) {
        let mut recorder = self.observatory.as_mut().and_then(|o| o.recorder.as_mut());
        for shard in &mut self.shards {
            let pending = &shard.trace.records()[shard.trace_fed..];
            let n = if last {
                pending.len()
            } else {
                pending.partition_point(|r| r.cycle == t)
            };
            let batch = &pending[..n];
            debug_assert!(
                batch.iter().all(|r| r.cycle == t),
                "the epoch epilogue consumes every staged record at its own cycle"
            );
            if n > 0 {
                if let Some(rec) = recorder.as_deref_mut() {
                    rec.record_events(batch);
                }
                self.sink.emit_all(batch);
            }
            if last {
                shard.trace.clear();
                shard.trace_fed = 0;
            } else {
                shard.trace_fed += n;
            }
        }
    }

    /// Emit the [`FlitEvent::RingUtil`] samples shards staged for cycle
    /// `t` (at [`UTIL_SAMPLE_PERIOD`] boundaries), in ring order.
    fn emit_staged_util(&mut self, t: u64) {
        for si in 0..self.shards.len() {
            while let Some(&(cycle, occupied, capacity)) = self.shards[si].pending_util.front() {
                if cycle != t {
                    break;
                }
                self.shards[si].pending_util.pop_front();
                self.sink.emit(TraceRecord {
                    cycle,
                    flit: NO_FLIT,
                    ring: si as u16,
                    station: 0,
                    lane: NO_LANE,
                    event: FlitEvent::RingUtil { occupied, capacity },
                });
            }
        }
    }
}

impl<S: TraceSink> Component for Network<S> {
    fn tick(&mut self, _now: Cycle) {
        Network::tick(self);
    }

    fn busy(&self) -> bool {
        self.in_flight() > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BridgeConfig;
    use crate::ids::RingKind;
    use crate::topology::TopologyBuilder;

    /// Four rings in a chain, bridge latency 4, one device per ring.
    fn chain() -> (Topology, Vec<NodeId>) {
        let mut b = TopologyBuilder::new();
        let die = b.add_chiplet("die");
        let rings: Vec<_> = (0..4)
            .map(|_| b.add_ring(die, RingKind::Full, 8).unwrap())
            .collect();
        let devs = rings
            .iter()
            .enumerate()
            .map(|(i, &r)| b.add_node(format!("d{i}"), r, 1).unwrap())
            .collect();
        for w in rings.windows(2) {
            b.add_bridge(BridgeConfig::l2().with_latency(4), w[0], 6, w[1], 6)
                .unwrap();
        }
        (b.build().unwrap(), devs)
    }

    #[test]
    fn a_network_owns_at_most_one_pool_and_releases_it_when_unused() {
        let (topo, devs) = chain();
        let cfg = NetworkConfig::default();
        let mut twin = Network::new(topo.clone(), cfg.clone());
        let mut net =
            Network::with_exec(topo, cfg, TickMode::Fast, ExecMode::Parallel(4), NullSink);
        let k = net.max_epoch();
        assert_eq!(k, 4);
        let step = |net: &mut Network, twin: &mut Network, epoch: bool| {
            for (i, &src) in devs.iter().enumerate() {
                let dst = devs[(i + 2) % devs.len()];
                let a = net.enqueue(src, dst, FlitClass::Data, 64, 0).is_ok();
                assert_eq!(a, twin.enqueue(src, dst, FlitClass::Data, 64, 0).is_ok());
            }
            if epoch {
                net.tick_epoch(k).unwrap();
                twin.tick_epoch(k).unwrap();
            } else {
                net.tick();
                twin.tick();
            }
            for &d in &devs {
                while net.pop_delivered(d).is_some() {}
                while twin.pop_delivered(d).is_some() {}
            }
            assert_eq!(net.fingerprint(), twin.fingerprint());
        };

        assert!(net.epoch.0.is_none(), "the pool is spawned lazily");
        for i in 0..20 {
            step(&mut net, &mut twin, i % 2 == 1);
            assert_eq!(net.epoch.0.as_ref().map(EpochEngine::workers), Some(3));
        }
        // Same worker count: the pool is kept.
        net.set_exec_mode(ExecMode::Parallel(4));
        assert!(net.epoch.0.is_some());
        // No workers wanted: the threads are joined at the switch, not
        // left parked behind a network that ticks inline.
        net.set_exec_mode(ExecMode::Sequential);
        assert_eq!(format!("{:?}", net.epoch), "EpochCell(idle)");
        for i in 0..20 {
            step(&mut net, &mut twin, i % 2 == 1);
            assert!(net.epoch.0.is_none());
        }
        // A different worker count replaces the pool rather than
        // adding a second one.
        net.set_exec_mode(ExecMode::Parallel(2));
        step(&mut net, &mut twin, false);
        assert_eq!(net.epoch.0.as_ref().map(EpochEngine::workers), Some(1));
        net.set_exec_mode(ExecMode::Parallel(3));
        assert!(net.epoch.0.is_none());
        step(&mut net, &mut twin, true);
        assert_eq!(net.epoch.0.as_ref().map(EpochEngine::workers), Some(2));
        assert!(twin.stats().delivered.get() > 0);
    }
}
