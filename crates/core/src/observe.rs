//! The observer half of the engine: online metrics, health watchdogs,
//! the flight recorder's flow accounting and the fabric half of the
//! wait graph that stall forensics builds once a network stops making
//! progress.
//!
//! The engine's cycle (`crate::epoch::run_cycle`) writes only datapath
//! state. Everything here reads it afterwards: the periodic metrics
//! sample runs in [`Network`]'s epilogue, once every ring has finished
//! the cycle, and the rest runs between ticks. The one thing the cycle
//! does for the observer is stage per-flow deltas in each shard's
//! `flow_buf` while flow accounting is on (its `flow_on` gate), because
//! a delivery is only seen where it happens.
//!
//! # Determinism
//!
//! Every pass walks rings in ascending id, lanes and stations in
//! ascending order, then the bridge escapes in (bridge, side) order,
//! and per-flow deltas enter a flow table in sorted (src, dst) order.
//! Every row is therefore a pure function of the engine state:
//! byte-identical run to run.

use crate::bridge::Bridges;
use crate::flit::PacketToken;
use crate::network::Network;
use crate::shard::{EngineShared, RingShard};
use crate::slab::FlitSlab;
use crate::topology::NodeKind;
use noc_sim::Cycle;
use noc_telemetry::{
    merge_ranked, BridgeGauges, BundleMeta, FlightRecorder, FlowDelta, FlowRecord, FlowTable,
    HealthConfig, HealthMonitor, MetricsRegistry, PostmortemBundle, RecorderConfig, RecorderView,
    ResourceId, RingGauges, RingWindow, TraceSink, WaitEdge, WedgeReport, WindowCounters,
    FLOW_TOP_K, MAX_BUNDLES, SERIES_WINDOW,
};

/// Online observability state: the snapshot registry, the watchdog
/// monitor and one [`RingObs`] per ring, attached by
/// [`Network::enable_metrics`],
/// optionally extended with the flight recorder and its captured
/// postmortem bundles by [`Network::enable_flight_recorder`].
#[derive(Debug, Clone)]
pub(crate) struct Observatory {
    registry: MetricsRegistry,
    monitor: HealthMonitor,
    /// The flight recorder's event ring and limits; `None` unless it
    /// was enabled. Its snapshot window is the tail of `registry`.
    pub recorder: Option<FlightRecorder>,
    /// Watchdog-triggered bundles, capped at [`MAX_BUNDLES`]. Explicit
    /// [`Network::dump_postmortem`] calls are not stored here.
    bundles: Vec<PostmortemBundle>,
    /// Per ring, ascending id.
    rings: Vec<RingObs>,
}

/// Sampling windows between in-flight charge sweeps of a recording
/// network. Deliveries are always accounted exactly at the next window;
/// the sweep that attributes a *circulating* flit's deflections and
/// samples link occupancy only runs every `CHARGE_STRIDE`-th window —
/// plus, forced, right before any watchdog bundle capture and at
/// `finish_metrics`, so frozen tables never lag.
const CHARGE_STRIDE: usize = 8;

/// What the observatory keeps of one ring.
#[derive(Debug, Clone)]
struct RingObs {
    /// Counter readings at the end of the previous metrics window, so
    /// each sample reports exact per-window deltas.
    metrics_base: WindowCounters,
    /// Heaviest (src, dst) flows delivering or deflecting on this ring,
    /// fed from the shard's staged deltas at sampling boundaries.
    flows: FlowTable,
    /// Flits observed on each station's link at sampling boundaries
    /// (lanes summed, cumulative across windows), index = station. A
    /// deterministic occupancy sample, not an exact traversal count —
    /// counting every traversal would put work on every tick.
    link_util: Vec<u64>,
    /// Windows left before the next in-flight charge sweep. A forced
    /// sweep (bundle capture, `finish_metrics`) resets the countdown so
    /// the following window boundary does not sweep again.
    windows_until_charge: usize,
}

impl RingObs {
    /// A fresh record for `shard`: the window base at its current
    /// counters (so the first window excludes earlier history) and a
    /// flow table of capacity `flow_top_k` (0 while flow accounting is
    /// off).
    fn new(shard: &RingShard, flow_top_k: usize) -> Self {
        RingObs {
            metrics_base: counters_now(shard),
            flows: FlowTable::new(flow_top_k),
            link_util: vec![0; shard.ring.stations as usize],
            windows_until_charge: CHARGE_STRIDE,
        }
    }

    /// Force the flow table exact *now*: sweep in-flight flits, then
    /// flush everything staged. Called before a postmortem bundle
    /// freezes the table and at `finish_metrics`, so captured flow
    /// rankings never lag behind the charge stride. Resets the stride
    /// countdown — the next window boundary will not sweep again.
    fn charge_and_flush(&mut self, shard: &mut RingShard, slab: &mut FlitSlab) {
        if !shard.flow_on {
            return;
        }
        charge_inflight(shard, slab);
        self.flush_flow_events(shard);
        // +1 because a window boundary in the same cycle (finish's
        // final sample) will decrement before checking.
        self.windows_until_charge = CHARGE_STRIDE + 1;
    }

    /// Apply the shard's staged flow deltas in sorted (src, dst) order,
    /// one batched table update per distinct flow. Eviction in the
    /// Space-Saving table depends on the sequence of keys it sees; the
    /// sort fixes that sequence — the key order the golden tests pin —
    /// and summing a flow's run of deltas keeps a deflection storm from
    /// paying one table lookup per event.
    fn flush_flow_events(&mut self, shard: &mut RingShard) {
        let buf = &mut shard.flow_buf;
        if buf.is_empty() {
            return;
        }
        buf.sort_unstable_by_key(|&(src, dst, _)| (src, dst));
        let mut run = buf.iter();
        let &(mut src, mut dst, mut delta) = run.next().expect("buffer is non-empty");
        for &(s, d, next) in run {
            if (s, d) != (src, dst) {
                self.flows.apply(src, dst, &delta);
                (src, dst, delta) = (s, d, FlowDelta::default());
            }
            delta.merge(&next);
        }
        self.flows.apply(src, dst, &delta);
        buf.clear();
    }

    /// Credit every station whose ring slot holds a flit with one link
    /// occupancy sample, straight from the occupancy bitsets — no flit
    /// memory touched. Runs at every sampling boundary; the sum over
    /// windows approximates relative link load without per-tick cost.
    fn sample_links(&mut self, shard: &RingShard) {
        for lane in &shard.ring.lanes {
            for s in lane.occupied_stations() {
                self.link_util[s] += 1;
            }
        }
    }

    /// One metrics row of `shard`, written over `row` (its buffers
    /// reused): window counter deltas since the last sample plus
    /// instantaneous ring/bridge gauges. Runs at the end of a cycle
    /// (`in_cycle`) or between ticks, when `Network::finish_metrics`
    /// closes the series; the bridge gauges depend on which
    /// ([`Bridges::gauges`]).
    #[allow(clippy::too_many_arguments)]
    fn sample(
        &mut self,
        row: &mut RingWindow,
        shard: &mut RingShard,
        shared: &EngineShared,
        bridges: &Bridges,
        slab: &mut FlitSlab,
        now: Cycle,
        in_cycle: bool,
    ) {
        let now_counters = counters_now(shard);
        let counters = now_counters.delta_since(&self.metrics_base);
        self.metrics_base = now_counters;

        let mut gauges = RingGauges {
            occupancy: shard.ring.occupancy() as u64,
            capacity: shard.ring.capacity() as u64,
            itag_slots: shard.ring.itag_count() as u64,
            ..RingGauges::default()
        };
        for node in &shard.nodes {
            gauges.inject_backlog += node.inject.len() as u64;
            gauges.eject_backlog += node.eject.len() as u64;
            gauges.etag_backlog += node.etag_list.len() as u64;
            let starve = node.starve as u64;
            gauges.record_starve(starve);
            gauges.max_starve = gauges.max_starve.max(starve);
            if node.starve >= shared.cfg.itag_threshold {
                gauges.starving_nodes += 1;
            }
        }

        let ring = shard.ring.id.0;
        row.bridges.clear();
        row.bridges.extend(shard.sides.iter().map(|side| {
            let (tx_pipe, rx_depth) = bridges.gauges(side, now.raw(), in_cycle);
            BridgeGauges {
                bridge: side.bridge.index() as u16,
                side: side.side,
                ring,
                tx_pipe,
                rx_depth,
                reserved: bridges.escapes[side.out()].reserved.len() as u32,
                in_drm: side.drm,
                drm_entries: side.drm_entries,
            }
        }));

        if shard.flow_on {
            // Link occupancy and delivery flushes run every window;
            // the in-flight charge sweep only every
            // `CHARGE_STRIDE`-th, to keep steady-state cost down.
            // Forced sweeps (bundle capture, finish) make the table
            // exact whenever it is actually frozen.
            self.sample_links(shard);
            self.windows_until_charge -= 1;
            if self.windows_until_charge == 0 {
                charge_inflight(shard, slab);
                self.windows_until_charge = CHARGE_STRIDE;
            }
            self.flush_flow_events(shard);
            self.flows.ranked(&mut row.flows);
            row.links.clone_from(&self.link_util);
        } else {
            row.flows.clear();
            row.links.clear();
        }
        row.ring = ring;
        row.counters = counters;
        row.gauges = gauges;
    }
}

/// Current cumulative counter readings of `shard`, in
/// [`WindowCounters`] form.
fn counters_now(shard: &RingShard) -> WindowCounters {
    let c = &shard.counters;
    WindowCounters {
        enqueued: c.enqueued,
        injected: c.injected,
        inject_losses: c.inject_losses,
        delivered: c.delivered,
        delivered_bytes: c.delivered_bytes,
        deflections: c.deflections,
        itags_placed: c.itags_placed,
        etags_placed: c.etags_placed,
        drm_entries: c.drm_entries,
        swaps: c.swaps,
        bridge_crossings: c.bridge_crossings,
    }
}

/// Sweep `shard`'s in-flight flits: stage each one's as-yet-uncharged
/// deflections and E-tag laps for its flow. Runs every
/// `CHARGE_STRIDE`-th metrics window plus whenever the table is
/// frozen (bundle capture, finish), so a wedged flow (circulating
/// forever, delivering nothing) still climbs the table while the
/// deflection hot path itself carries no accounting work.
fn charge_inflight(shard: &mut RingShard, slab: &mut FlitSlab) {
    let flow_buf = &mut shard.flow_buf;
    for lane in &shard.ring.lanes {
        for flit in lane.flits() {
            let flit = &mut slab[flit];
            let deflections = flit.deflections - flit.charged_deflections;
            if deflections != 0 {
                let etag_laps = flit.etag_laps - flit.charged_etag_laps;
                flit.charged_deflections = flit.deflections;
                flit.charged_etag_laps = flit.etag_laps;
                flow_buf.push((
                    flit.src.0,
                    flit.dst.0,
                    FlowDelta {
                        deflections: u64::from(deflections),
                        etag_laps: u64::from(etag_laps),
                        ..FlowDelta::default()
                    },
                ));
            }
        }
    }
}

/// The wait-graph resource of escape `e` (index `2 * bridge + side`,
/// see [`crate::bridge`]).
fn escape_id(e: usize) -> ResourceId {
    ResourceId::Escape {
        bridge: (e / 2) as u32,
        side: (e % 2) as u8,
    }
}

/// The packet id a flit belongs to.
fn packet_of(token: u64) -> u64 {
    PacketToken::decode(token).packet
}

impl<S: TraceSink> Network<S> {
    // ------------------------------------------------------------------
    // Switching the observatory on
    // ------------------------------------------------------------------

    /// Switch on online metrics sampling (and the default health
    /// watchdogs): at the end of every cycle that is a multiple of
    /// `period`, once every ring has finished the cycle, the engine
    /// samples each ring and commits the rows as one
    /// [`MetricsSnapshot`](noc_telemetry::MetricsSnapshot), in ring
    /// order.
    ///
    /// Counters observed before this call are excluded from the
    /// windows; enabling mid-run starts a fresh series. The registry
    /// keeps the newest [`SERIES_WINDOW`] snapshots; read the whole
    /// series through [`MetricsRegistry::since`] as it is committed.
    /// Replaces any earlier observatory, flight recorder and flow
    /// accounting included.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn enable_metrics(&mut self, period: u64) {
        self.attach_observatory(period, HealthConfig::default(), None);
    }

    /// [`Network::enable_metrics`] with explicit watchdog thresholds
    /// plus the flight recorder: each ring additionally keeps a
    /// deterministic Space-Saving flow table and per-link utilization
    /// row, the last
    /// [`RecorderConfig::snapshot_window`] snapshots of the (new)
    /// registry form the recorder's history, (when a tracing sink is
    /// attached) trace events are retained in its bounded event ring,
    /// and any watchdog latching a new verdict captures a
    /// [`PostmortemBundle`] — up to [`MAX_BUNDLES`], readable via
    /// [`Network::bundles`].
    ///
    /// The registry itself then keeps only that window: exactly the
    /// newest max(R, 1) snapshots, however long the run. Read the whole
    /// series through [`MetricsRegistry::since`] as it is committed,
    /// and the commit count through [`MetricsRegistry::committed`].
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
        self.attach_observatory(period, health, Some(recorder));
    }

    /// Replace the observer state wholesale: a fresh registry, monitor
    /// and per-ring record, and every shard's flow gate set to whether
    /// `recorder` asks for flow accounting.
    fn attach_observatory(
        &mut self,
        period: u64,
        health: HealthConfig,
        recorder: Option<RecorderConfig>,
    ) {
        let k = if recorder.is_some() { FLOW_TOP_K } else { 0 };
        let keep = recorder
            .as_ref()
            .map_or(SERIES_WINDOW, |r| r.snapshot_window);
        for shard in &mut self.shards {
            shard.flow_on = k != 0;
            shard.flow_buf.clear();
        }
        self.observatory = Some(Observatory {
            registry: MetricsRegistry::new(period, keep),
            monitor: HealthMonitor::new(health),
            recorder: recorder.map(FlightRecorder::new),
            bundles: Vec::new(),
            rings: self.shards.iter().map(|s| RingObs::new(s, k)).collect(),
        });
    }

    // ------------------------------------------------------------------
    // Reading it
    // ------------------------------------------------------------------

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

    /// The heaviest (src, dst) flows across all rings: per-ring
    /// Space-Saving tables merged and cut to `k`. Empty unless
    /// [`Network::enable_flight_recorder`] switched flow accounting on.
    /// Deliveries are current to the last sampling window; a still
    /// circulating flit's deflections are attributed at charge-stride
    /// sweeps (every 8th window, `CHARGE_STRIDE`) and become exact
    /// after [`Network::finish_metrics`] or inside a watchdog bundle.
    pub fn flow_top(&self, k: usize) -> Vec<FlowRecord> {
        let Some(obs) = &self.observatory else {
            return Vec::new();
        };
        let tables: Vec<_> = obs.rings.iter().map(|r| &r.flows).collect();
        merge_ranked(&tables, k)
    }

    /// Per-(ring, station) link occupancy samples accumulated at
    /// sampling boundaries, shaped for
    /// [`crate::render::ascii_heatmap`]. All zeros unless flow
    /// accounting is on.
    pub fn link_cells(&self) -> Vec<Vec<u64>> {
        match &self.observatory {
            Some(obs) => obs.rings.iter().map(|r| r.link_util.clone()).collect(),
            None => self
                .shards
                .iter()
                .map(|s| vec![0; s.ring.stations as usize])
                .collect(),
        }
    }

    /// Freeze the current state into a [`PostmortemBundle`] without
    /// waiting for a watchdog: recent snapshots and events from the
    /// flight recorder (empty if it is off), merged flow top-K,
    /// per-link heat, every verdict so far, and the config needed for
    /// replay. Returns `None` when the observatory is
    /// disabled. Explicit dumps are not stored in [`Network::bundles`]
    /// and not counted against [`MAX_BUNDLES`]; unlike
    /// watchdog captures they do not force a charge sweep, so in-flight
    /// deflection attribution may lag by up to
    /// 8 windows (`CHARGE_STRIDE`).
    pub fn dump_postmortem(&self, reason: &str) -> Option<PostmortemBundle> {
        let obs = self.observatory.as_ref()?;
        let rec = self.recorder();
        let flow_top_k = if rec.is_some() { FLOW_TOP_K } else { 0 };
        Some(PostmortemBundle {
            meta: BundleMeta {
                reason: reason.to_string(),
                cycle: self.now.raw(),
                stations: self.shards.iter().map(|s| s.ring.stations).collect(),
                flow_top_k,
                snapshots_seen: rec.map_or(0, |r| r.snapshots_seen()),
                events_seen: rec.map_or(0, |r| r.events_seen()),
                config: serde_json::to_value(&self.shared.cfg),
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
        })
    }

    /// The snapshot registry, if the observatory is enabled: the newest
    /// [`SERIES_WINDOW`] snapshots, or with the flight recorder attached
    /// its window (see [`Network::enable_flight_recorder`]).
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
        match self.health() {
            Some(monitor) => monitor.report(),
            None => "health: observatory disabled (call enable_metrics)\n".to_string(),
        }
    }

    // ------------------------------------------------------------------
    // Wait-graph evidence
    // ------------------------------------------------------------------

    /// The fabric half of the stall-forensics edge set, pushed onto
    /// `edges`:
    ///
    /// * per ring, ascending id, one ring → escape edge per bridge side
    ///   that flits resident on the ring's lanes route out through,
    ///   ascending (bridge, side) — they hold ring slots until that
    ///   escape admits them;
    /// * then one escape → ring edge per occupied escape, ascending
    ///   (bridge, side), to the ring the crossing lands on — an
    ///   occupied escape needs free slots there.
    ///
    /// Each edge's holder is `holder` of the smallest packet id among
    /// the flits behind it. Returns where every in-network flit's
    /// packet sits: sorted, unique `(packet, resource)` pairs, a ring
    /// for flits on its lanes or queued to inject there, an escape for
    /// flits in its pipeline or reserved buffers. Packet ids are
    /// decoded from flit tokens via [`PacketToken`], so they mean
    /// something only for traffic that encodes packet tokens (the
    /// transaction layer does, raw flit tests need not).
    ///
    /// Runs between ticks and walks every flit in ring, lane and
    /// station order, so the result is deterministic. Stall forensics
    /// calls it once per stall episode, not per sample.
    pub fn push_wait_edges(
        &self,
        holder: impl Fn(u64) -> u64,
        edges: &mut Vec<WaitEdge>,
    ) -> Vec<(u64, ResourceId)> {
        let mut placed = Vec::new();
        for shard in &self.shards {
            let ring = ResourceId::Ring {
                ring: shard.ring.id.0,
            };
            // Smallest resident packet per wanted escape.
            let mut transit: Vec<(ResourceId, u64)> = Vec::new();
            for flit in shard.ring.lanes.iter().flat_map(|lane| lane.flits()) {
                let packet = packet_of(self.slab[flit].token);
                placed.push((packet, ring));
                let Some(hop) = self.shared.route.exit(shard.ring.id, flit.dst) else {
                    continue;
                };
                let NodeKind::BridgeEndpoint { bridge, side } =
                    self.shared.topo.nodes()[hop.target.index()].kind
                else {
                    continue;
                };
                let to = escape_id(2 * bridge.index() + side as usize);
                match transit.iter_mut().find(|t| t.0 == to) {
                    Some(t) => t.1 = t.1.min(packet),
                    None => transit.push((to, packet)),
                }
            }
            // Flits queued to inject are pinned to this ring's slot
            // pool like resident ones, though they hold no slot yet.
            for node in &shard.nodes {
                let queued = node.inject.iter().map(|&f| packet_of(self.slab[f].token));
                placed.extend(queued.map(|packet| (packet, ring)));
            }
            transit.sort_unstable();
            edges.extend(transit.into_iter().map(|(to, packet)| WaitEdge {
                from: ring,
                to,
                holder: holder(packet),
            }));
        }
        for (e, esc) in self.bridges.escapes.iter().enumerate() {
            let from = escape_id(e);
            let packets = esc
                .fifo
                .iter()
                .map(|&(_, f)| f)
                .chain(esc.reserved.iter().copied());
            let packets = packets.map(|f| packet_of(self.slab[f].token));
            let before = placed.len();
            placed.extend(packets.map(|p| (p, from)));
            if let Some(&(min, _)) = placed[before..].iter().min() {
                edges.push(WaitEdge {
                    from,
                    to: ResourceId::Ring { ring: esc.to_ring },
                    holder: holder(min),
                });
            }
        }
        placed.sort_unstable();
        placed.dedup();
        placed
    }

    /// Hand one wedge report from stall forensics to the health
    /// monitor's `deadlock-suspected` watchdog, which fires, and capture
    /// a postmortem bundle exactly like the snapshot watchdogs do. No-op
    /// when the observatory is disabled.
    pub fn observe_wait(&mut self, report: &WedgeReport) {
        let Some(obs) = self.observatory.as_mut() else {
            return;
        };
        obs.monitor.observe_wait(report);
        self.capture_on_verdict("watchdog: CRIT:deadlock-suspected", report.cycle);
    }

    // ------------------------------------------------------------------
    // Sampling
    // ------------------------------------------------------------------

    /// Force one final sample covering the partial window since the
    /// last periodic snapshot (plus any post-tick enqueues), so the
    /// committed windows sum exactly to the run's
    /// [`NetStats`](crate::NetStats) totals. Call at end of run before
    /// reading [`Network::metrics`].
    pub fn finish_metrics(&mut self) {
        let Some(obs) = self.observatory.as_mut() else {
            return;
        };
        let window = self.now.raw() % obs.registry.period();
        obs.charge_all(&mut self.shards, &mut self.slab);
        self.sample_and_commit(window, false);
    }

    /// The epilogue's metrics step: at a period boundary, sample every
    /// ring with the end-of-cycle rule and commit the snapshot.
    pub(crate) fn sample_if_due(&mut self) {
        let Some(obs) = &self.observatory else {
            return;
        };
        let period = obs.registry.period();
        if self.now.raw().is_multiple_of(period) {
            self.sample_and_commit(period, true);
        }
    }

    /// Sample every ring, commit the rows as one snapshot in ascending
    /// ring id, and let the watchdogs read it beside the progress stamp.
    /// Caller guarantees the observatory is enabled.
    fn sample_and_commit(&mut self, window: u64, in_cycle: bool) {
        let cycle = self.now.raw();
        let in_flight = self.in_flight();
        let stalled_for = self.stalled_for();
        let obs = self.observatory.as_mut().expect("caller checked");
        // Sample into the rows of the snapshot the last commit evicted.
        let mut rings = obs.registry.take_spare();
        rings.resize_with(obs.rings.len(), RingWindow::default);
        for ((row, o), shard) in rings.iter_mut().zip(&mut obs.rings).zip(&mut self.shards) {
            o.sample(
                row,
                shard,
                &self.shared,
                &self.bridges,
                &mut self.slab,
                self.now,
                in_cycle,
            );
        }
        let snap = obs.registry.commit(cycle, window, in_flight, rings);
        let new_verdicts = obs.monitor.observe(snap, stalled_for);
        if new_verdicts > 0 {
            let vs = obs.monitor.verdicts();
            let fired: Vec<String> = vs[vs.len() - new_verdicts..]
                .iter()
                .map(|v| format!("{}:{}", v.severity, v.rule))
                .collect();
            self.capture_on_verdict(&format!("watchdog: {}", fired.join(", ")), cycle);
        }
    }

    /// A watchdog latched a new verdict at `cycle`: with the flight
    /// recorder on and room under its bundle cap, make every flow table
    /// exact and store a bundle named `reason`. A watchdog can latch
    /// between charge-stride sweeps, and the flow that wedged the
    /// network may never deliver (so only sweeps see it).
    fn capture_on_verdict(&mut self, reason: &str, cycle: u64) {
        let obs = self.observatory.as_mut().expect("caller checked");
        if obs.recorder.is_none() || obs.bundles.len() >= MAX_BUNDLES {
            return;
        }
        obs.charge_all(&mut self.shards, &mut self.slab);
        let mut bundle = self.dump_postmortem(reason).expect("observatory is on");
        bundle.meta.cycle = cycle;
        let obs = self.observatory.as_mut().expect("caller checked");
        obs.bundles.push(bundle);
    }
}

impl Observatory {
    /// [`RingObs::charge_and_flush`] for every ring.
    fn charge_all(&mut self, shards: &mut [RingShard], slab: &mut FlitSlab) {
        for (o, shard) in self.rings.iter_mut().zip(shards) {
            o.charge_and_flush(shard, slab);
        }
    }
}
