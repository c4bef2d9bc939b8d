//! Per-ring shards: the unit of state ownership.
//!
//! A [`RingShard`] owns everything the paper's §4 station logic can
//! touch while processing one ring for one cycle: the ring's lanes and
//! their occupancy bitsets and exit calendars, the node interfaces
//! attached to its stations (inject/eject queues, starvation counters,
//! E-tag lists, cached head intent), its sides of any bridges
//! ([`BridgeSide`] mailboxes), the round-robin pointers and the
//! per-intent station bitsets, plus a private [`NetStats`],
//! [`TickProfile`] and [`TraceBuffer`].
//!
//! Because the station logic is provably ring-local — a flit can only
//! leave its ring through a bridge mailbox, and mail moves between
//! shards only at the engine's phase barriers — shards can be evaluated
//! in any order with bit-identical results. The engine merges their
//! stats, profiles and trace buffers in ascending ring order afterwards.
//! Immutable inputs every shard needs (config, route table, global→local
//! id maps) live in one shared [`EngineShared`].
//!
//! The bridge phases are event-indexed like the station sweep: a shard
//! keeps the earliest cycle any of its inboxes matures
//! ([`RingShard::rx_due`]) and four side bitsets — intake work, DRM
//! watch, and the `popped`/`staged` marks the barriers consume — so
//! delivery, intake, DRM bookkeeping and both barriers
//! ([`crate::bridge`]) touch only the sides where something is due, in
//! ascending side order (DESIGN.md §21).
//!
//! Methods take a `const TRACE: bool` parameter instead of a sink type:
//! with `TRACE = false` every record construction folds away exactly
//! like the `S::ENABLED` guards did in the monolith, and shards stay
//! independent of sink types.

use crate::bits::{word_ones, BitRing};
use crate::bridge::BridgeSide;
use crate::census::{self, PacketPlace, RingCensus, TransitCensus, WaitCensus};
use crate::config::NetworkConfig;
use crate::flit::Flit;
use crate::ids::{NodeId, RingId};
use crate::queue::Fifo;
use crate::ring::Ring;
use crate::route::{ring_travel, RouteTable};
use crate::stats::{NetStats, TickProfile};
use crate::topology::{NodeKind, Topology};
use noc_sim::{BandwidthProbe, Cycle};
use noc_telemetry::{
    BridgeGauges, FlitEvent, FlowDelta, FlowTable, ResourceId, RingGauges, RingWindow, TraceBuffer,
    TraceRecord, WaitNode, WindowCounters, NO_FLIT, NO_LANE,
};
use std::collections::VecDeque;

/// Where a global node id lives: which ring shard, at which index.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeLoc {
    pub ring: u16,
    pub local: u32,
}

/// Where one side of a bridge lives: which ring shard, at which index
/// in that shard's `sides`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SideLoc {
    pub ring: u16,
    pub idx: u32,
}

impl SideLoc {
    /// `(shard index, side index)`.
    #[inline]
    pub(crate) fn at(self) -> (usize, usize) {
        (self.ring as usize, self.idx as usize)
    }
}

/// Immutable engine inputs shared by all shards.
#[derive(Debug, Clone)]
pub(crate) struct EngineShared {
    pub cfg: NetworkConfig,
    pub topo: Topology,
    pub route: RouteTable,
    /// Global node id → owning shard and local index.
    pub node_loc: Vec<NodeLoc>,
    /// Bridge id → location of each side.
    pub side_loc: Vec<[SideLoc; 2]>,
    /// The minimum bridge traversal latency (at least 1), `u64::MAX`
    /// without bridges: the longest `Network::tick_epoch` accepts, fixed
    /// by the topology and therefore computed once here.
    pub max_epoch: u64,
}

/// What the head of a node's inject queue needs from its station.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Intent {
    /// Nothing queued (or nothing routable).
    Idle,
    /// The zero-hop path: the head leaves the ring at its own station.
    Local,
    /// A free slot on this lane.
    Lane(u8),
}

impl Intent {
    /// Index of this intent's station bitset in
    /// `RingShard::intent_bits`: the lane index, then local.
    #[inline]
    fn bits_index(self) -> Option<usize> {
        match self {
            Intent::Idle => None,
            Intent::Lane(l) => Some(l as usize),
            Intent::Local => Some(LOCAL_BITS),
        }
    }
}

/// Index of the zero-hop bitset in `RingShard::intent_bits`.
const LOCAL_BITS: usize = 2;

/// An [`Intent`] plus the station the head leaves this ring at
/// (meaningful unless idle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct HeadWant {
    pub intent: Intent,
    pub exit: u16,
}

impl HeadWant {
    const IDLE: HeadWant = HeadWant {
        intent: Intent::Idle,
        exit: 0,
    };
}

/// Per-node runtime state: the two queues of a node interface plus tag
/// bookkeeping.
#[derive(Debug, Clone)]
pub(crate) struct NodeState {
    /// Global id (telemetry events and the public API speak global ids).
    pub id: NodeId,
    pub ring: RingId,
    pub station: u16,
    /// What the head of `inject` wants, cached so the station logic
    /// reads a byte instead of routing the head on every visit. Kept
    /// true by [`RingShard::head_changed`] at every push-to-empty and
    /// every pop; debug builds check it against the route table every
    /// cycle.
    pub want: HeadWant,
    pub kind: NodeKind,
    /// For a bridge endpoint, the index in `RingShard::sides` of the
    /// side it feeds — how an arrival or a lost arbitration here finds
    /// the side set to mark.
    pub side: Option<u32>,
    /// The `starve` count that puts that side on DRM watch: its
    /// `deadlock_threshold` if DRM applies to it, `u32::MAX` otherwise
    /// (and for devices) — so the arbitration-loss path compares two
    /// fields of the node it already holds.
    pub drm_watch_at: u32,
    pub inject: Fifo<Flit>,
    pub eject: Fifo<Flit>,
    /// Consecutive cycles the head of `inject` failed to win a slot.
    pub starve: u32,
    /// Whether an I-tagged slot is circulating for this node.
    pub itag_pending: bool,
    /// E-tag reservations: ids of flits entitled to freed eject buffers,
    /// oldest first.
    pub etag_list: VecDeque<u64>,
    /// Deflections of flits that targeted this node (diagnostics).
    pub deflected_here: u64,
    /// I-tags this node has placed on passing slots (diagnostics).
    pub itags_here: u64,
    /// Bandwidth probe (devices only, when probing is configured).
    pub probe: Option<BandwidthProbe>,
}

/// One ring plus everything attached to it. See the module docs.
#[derive(Debug, Clone)]
pub(crate) struct RingShard {
    pub ring: Ring,
    /// Node interfaces on this ring, ascending global id.
    pub nodes: Vec<NodeState>,
    /// Bridge sides on this ring, ascending (bridge, side).
    pub sides: Vec<BridgeSide>,
    /// Round-robin pointer per (station, lane).
    rr: Vec<[u8; 2]>,
    /// Local node index attached per (station, port).
    ports: Vec<[Option<u32>; 2]>,
    /// One station bitset per head intent — lane 0, lane 1, zero-hop
    /// local (`Intent::bits_index`): bit `s` is set iff a node at
    /// station `s` has that cached intent.
    intent_bits: [BitRing; 3],
    /// Earliest `BridgeSide::rx_due` over `sides` (`u64::MAX` when every
    /// inbox is empty): delivery is one compare while this lies in the
    /// future. A side held by a full endpoint Inject Queue stays due.
    pub rx_due: u64,
    /// Sides with intake work: a flit in the endpoint's Eject Queue or
    /// in `reserved`. Set where a flit enters either, cleared by intake
    /// once both are empty. Like the three sets below, one bit per
    /// entry of `sides`, walked in ascending order.
    intake: BitRing,
    /// Sides on DRM watch: in deadlock resolution mode, or with the
    /// endpoint's `starve` at the deadlock threshold. Only DRM-capable
    /// sides are ever marked.
    drm_watch: BitRing,
    /// Sides delivery popped from this cycle; barrier 1 consumes it.
    pub popped: BitRing,
    /// Sides intake staged into this cycle; barrier 2 consumes it.
    pub staged: BitRing,
    /// Devices with mail: bit `i` is set iff `nodes[i]` is a device
    /// whose Eject Queue is non-empty. Set by `finish_arrival`, cleared
    /// by `Network::pop_delivered` — the only two places a device's
    /// Eject Queue changes (SWAP and intake touch bridge endpoints
    /// only). [`crate::Network::nodes_with_deliveries`] walks it.
    pub delivered: BitRing,
    pub stats: NetStats,
    /// Shard-local sweep instrumentation (`ticks` stays 0 here; the
    /// engine adds the tick count on top when merging).
    pub profile: TickProfile,
    /// Events staged this cycle, fed to the sink by the engine in ring
    /// order at the end of the cycle.
    pub trace: TraceBuffer,
    /// Metrics sampling period in cycles; 0 disables sampling.
    pub metrics_period: u64,
    /// Counter readings at the end of the previous metrics window, so
    /// each sample reports exact per-window deltas.
    metrics_base: WindowCounters,
    /// The sample staged by this cycle's per-ring phase, committed by
    /// the engine in ring order at the end of the cycle.
    pub staged_window: Option<RingWindow>,
    /// Space-Saving capacity of the flow table; 0 disables flow
    /// accounting (and link counting) entirely.
    pub flow_topk: usize,
    /// Heaviest (src, dst) flows delivering or deflecting on this ring.
    /// Shard-local; fed from `flow_buf` at sampling boundaries in
    /// sorted flow-key order.
    pub flows: FlowTable,
    /// Per-flow deltas staged since the last flush. Charging is lazy —
    /// deflections accumulate on the flit itself and are converted to
    /// deltas at delivery and at metrics sampling boundaries — so the
    /// deflection hot path stays free of accounting work. Space-Saving
    /// eviction depends on the order flows arrive in; the flush sorts
    /// the staged deltas by (src, dst) and sums per flow, and that key
    /// order is the one the golden tests pin.
    flow_buf: Vec<(u32, u32, FlowDelta)>,
    /// Flits observed on each station's link at sampling boundaries
    /// (lanes summed, cumulative across windows), index = station. A
    /// deterministic occupancy sample, not an exact traversal count —
    /// counting every traversal would put work on every tick.
    pub link_util: Vec<u64>,
    /// Sampling windows between in-flight charge sweeps (see
    /// `charge_inflight`); 1 sweeps every window.
    flow_charge_stride: usize,
    /// Windows left before the next in-flight charge sweep. A forced
    /// sweep (bundle capture, `finish_metrics`) resets the countdown so
    /// the following window boundary does not sweep again.
    windows_until_charge: usize,
}

/// Build the shared inputs and one shard per ring from a validated
/// topology.
pub(crate) fn build(topo: Topology, cfg: NetworkConfig) -> (EngineShared, Vec<RingShard>) {
    let route = RouteTable::build(&topo);
    let mut nsides = vec![0usize; topo.rings().len()];
    for b in topo.bridges() {
        for ep in [b.a, b.b] {
            nsides[topo.nodes()[ep.index()].ring.index()] += 1;
        }
    }
    let mut shards: Vec<RingShard> = topo
        .rings()
        .iter()
        .zip(nsides)
        .map(|(r, nsides)| RingShard {
            ring: Ring::new(r.id, r.chiplet, r.kind, r.stations),
            nodes: Vec::new(),
            sides: Vec::new(),
            rr: vec![[0u8; 2]; r.stations as usize],
            ports: vec![[None, None]; r.stations as usize],
            intent_bits: std::array::from_fn(|_| BitRing::new(r.stations as usize)),
            rx_due: u64::MAX,
            intake: BitRing::new(nsides),
            drm_watch: BitRing::new(nsides),
            popped: BitRing::new(nsides),
            staged: BitRing::new(nsides),
            delivered: BitRing::new(0),
            stats: NetStats::new(),
            profile: TickProfile::default(),
            trace: TraceBuffer::default(),
            metrics_period: 0,
            metrics_base: WindowCounters::default(),
            staged_window: None,
            flow_topk: 0,
            flows: FlowTable::new(0),
            flow_buf: Vec::new(),
            link_util: vec![0; r.stations as usize],
            flow_charge_stride: 1,
            windows_until_charge: 1,
        })
        .collect();
    let mut node_loc = Vec::with_capacity(topo.nodes().len());
    for n in topo.nodes() {
        let shard = &mut shards[n.ring.index()];
        let local = shard.nodes.len() as u32;
        node_loc.push(NodeLoc {
            ring: n.ring.0,
            local,
        });
        shard.ports[n.station as usize][n.port as usize] = Some(local);
        shard.nodes.push(NodeState {
            id: n.id,
            ring: n.ring,
            station: n.station,
            want: HeadWant::IDLE,
            kind: n.kind,
            side: None,
            drm_watch_at: u32::MAX,
            inject: Fifo::new(cfg.inject_queue_cap),
            eject: Fifo::new(cfg.eject_queue_cap),
            starve: 0,
            itag_pending: false,
            etag_list: VecDeque::new(),
            deflected_here: 0,
            itags_here: 0,
            probe: (cfg.probe_window > 0 && matches!(n.kind, NodeKind::Device))
                .then(|| BandwidthProbe::new(n.name.clone(), cfg.probe_window)),
        });
    }
    for shard in &mut shards {
        shard.delivered = BitRing::new(shard.nodes.len());
    }
    let mut side_loc = Vec::with_capacity(topo.bridges().len());
    for b in topo.bridges() {
        let locs = [b.a, b.b].map(|ep| {
            let ring = node_loc[ep.index()].ring;
            SideLoc {
                ring,
                idx: shards[ring as usize].sides.len() as u32,
            }
        });
        for (side, ep) in [(0u8, b.a), (1u8, b.b)] {
            let loc = node_loc[ep.index()];
            let shard = &mut shards[loc.ring as usize];
            let idx = locs[side as usize].idx;
            shard.nodes[loc.local as usize].side = Some(idx);
            shard.sides.push(BridgeSide {
                bridge: b.id,
                side,
                endpoint: loc.local,
                peer: locs[1 - side as usize],
                cfg: b.config.clone(),
                rx: VecDeque::new(),
                rx_due: u64::MAX,
                tx: VecDeque::new(),
                peer_backlog: 0,
                last_staged: (0, 0),
                reserved: VecDeque::new(),
                drm: false,
                drm_entries: 0,
                tx_pushed: 0,
                rx_popped: 0,
            });
            if shard.sides[idx as usize].drm_capable() {
                shard.nodes[loc.local as usize].drm_watch_at = b.config.deadlock_threshold;
                // A zero threshold is met before the first lost arbitration.
                if b.config.deadlock_threshold == 0 {
                    shard.drm_watch.set(idx as usize);
                }
            }
        }
        side_loc.push(locs);
    }
    let max_epoch = topo
        .bridges()
        .iter()
        .map(|b| u64::from(b.config.latency.max(1)))
        .min()
        .unwrap_or(u64::MAX);
    let shared = EngineShared {
        cfg,
        topo,
        route,
        node_loc,
        side_loc,
        max_epoch,
    };
    (shared, shards)
}

impl RingShard {
    // ------------------------------------------------------------------
    // Head-intent cache
    // ------------------------------------------------------------------

    /// What local node `ni`'s inject-queue head wants, from the route
    /// table: nothing, the zero-hop path, or a slot on the lane of the
    /// shorter arc to its exit station.
    fn head_want(&self, shared: &EngineShared, ni: usize) -> HeadWant {
        let node = &self.nodes[ni];
        let Some(hop) = node
            .inject
            .peek()
            .and_then(|head| shared.route.exit(node.ring, head.dst))
        else {
            return HeadWant::IDLE;
        };
        let intent = if hop.station == node.station {
            Intent::Local
        } else {
            let (dir, _) = ring_travel(
                self.ring.kind,
                self.ring.stations,
                node.station,
                hop.station,
            );
            Intent::Lane(dir.lane() as u8)
        };
        HeadWant {
            intent,
            exit: hop.station,
        }
    }

    /// Refresh local node `ni`'s cached head intent and its station's
    /// intent bits. Must be called whenever the head of its inject
    /// queue changes: at every push onto an empty queue and every pop.
    pub(crate) fn head_changed(&mut self, shared: &EngineShared, ni: usize) {
        let new = self.head_want(shared, ni);
        let old = std::mem::replace(&mut self.nodes[ni].want, new);
        if old.intent == new.intent {
            return;
        }
        let s = self.nodes[ni].station as usize;
        for intent in [old.intent, new.intent] {
            let Some(k) = intent.bits_index() else {
                continue;
            };
            if self.station_has(s, intent) {
                self.intent_bits[k].set(s);
            } else {
                self.intent_bits[k].clear(s);
            }
        }
    }

    /// Whether a node at station `s` has cached intent `intent`.
    fn station_has(&self, s: usize, intent: Intent) -> bool {
        self.ports[s]
            .iter()
            .flatten()
            .any(|&local| self.nodes[local as usize].want.intent == intent)
    }

    /// Debug builds: every node's cached head intent is what
    /// [`RingShard::head_want`] routes, and the three intent bitsets
    /// hold exactly the stations of those intents. O(nodes + words).
    fn debug_check_intents(&self, shared: &EngineShared) {
        if !cfg!(debug_assertions) {
            return;
        }
        let words = self.intent_bits[0].words().len();
        let mut expect = [vec![0u64; words], vec![0u64; words], vec![0u64; words]];
        for (ni, node) in self.nodes.iter().enumerate() {
            assert_eq!(node.want, self.head_want(shared, ni), "{}", node.id);
            if let Some(k) = node.want.intent.bits_index() {
                let s = node.station as usize;
                expect[k][s / 64] |= 1 << (s % 64);
            }
        }
        for (k, words) in expect.iter().enumerate() {
            assert_eq!(self.intent_bits[k].words(), words, "{}", self.ring.id);
        }
    }

    // ------------------------------------------------------------------
    // Phase 1: bridge delivery (reads only this shard + its rx inboxes)
    // ------------------------------------------------------------------

    /// Move matured flits from this shard's bridge inboxes into their
    /// endpoint inject queues. Returns at once while nothing on this
    /// ring is due; otherwise visits the due sides in ascending order,
    /// marks the ones it popped from for barrier 1 and re-derives the
    /// shard's earliest due cycle. Returns whether any side was popped.
    pub(crate) fn phase_deliver<const TRACE: bool>(
        &mut self,
        shared: &EngineShared,
        now: Cycle,
    ) -> bool {
        let nraw = now.raw();
        if self.rx_due > nraw {
            return false;
        }
        let mut popped = false;
        let mut earliest = u64::MAX;
        for si in 0..self.sides.len() {
            if self.sides[si].rx_due <= nraw {
                self.profile.side_visits += 1;
                popped |= self.deliver_side::<TRACE>(shared, nraw, si);
            }
            earliest = earliest.min(self.sides[si].rx_due);
        }
        self.rx_due = earliest;
        popped
    }

    /// Drain side `si`'s matured flits into its endpoint's inject queue
    /// until the inbox head lies in the future or the queue is full.
    /// Returns whether it popped any, having marked the side if so.
    fn deliver_side<const TRACE: bool>(
        &mut self,
        shared: &EngineShared,
        nraw: u64,
        si: usize,
    ) -> bool {
        let ep = self.sides[si].endpoint as usize;
        let mut popped = false;
        while self.sides[si].rx_due <= nraw {
            if self.nodes[ep].inject.is_full() {
                if TRACE {
                    // Matured flit held in the pipeline by a full
                    // endpoint Inject Queue: backpressure.
                    let fid = self.sides[si].rx.front().map_or(NO_FLIT, |(_, f)| f.id);
                    let record = TraceRecord {
                        cycle: nraw,
                        flit: fid,
                        ring: self.ring.id.0,
                        station: self.nodes[ep].station,
                        lane: NO_LANE,
                        event: FlitEvent::BridgeStalled {
                            bridge: self.sides[si].bridge.index() as u16,
                        },
                    };
                    self.trace.push(record);
                }
                break;
            }
            let side = &mut self.sides[si];
            let (_, flit) = side.rx.pop_front().expect("due implies non-empty");
            side.rx_popped += 1;
            side.refresh_rx_due();
            popped = true;
            self.nodes[ep].inject.push(flit).expect("checked not full");
            if self.nodes[ep].inject.len() == 1 {
                self.head_changed(shared, ep);
            }
            self.stats.bridge_crossings.inc();
        }
        if popped {
            self.popped.set(si);
        }
        popped
    }

    /// Move a batch the peer staged onto the end of side `si`'s inbox
    /// (leaving `batch` empty), keeping the side's and the shard's due
    /// cycles true. Returns the inbox depth afterwards — the sender's
    /// new `peer_backlog`.
    pub(crate) fn receive(&mut self, si: usize, batch: &mut VecDeque<(u64, Flit)>) -> usize {
        let side = &mut self.sides[si];
        side.rx.append(batch);
        side.refresh_rx_due();
        self.rx_due = self.rx_due.min(side.rx_due);
        side.rx.len()
    }

    // ------------------------------------------------------------------
    // Phase 2: the per-ring cycle (touches only this shard)
    // ------------------------------------------------------------------

    /// The fused per-ring portion of one tick: zero-hop local
    /// deliveries, the station sweep, lane advancement, bridge intake
    /// (staged into `tx` mailboxes) and DRM bookkeeping.
    pub(crate) fn phase_cycle<const TRACE: bool>(&mut self, shared: &EngineShared, now: Cycle) {
        self.local_deliveries_fast::<TRACE>(shared, now);
        self.sweep_active::<TRACE>(shared, now);
        for lane in &mut self.ring.lanes {
            lane.advance();
        }
        self.debug_check_delivered();
        self.debug_check_side_indices();
        self.bridge_intake::<TRACE>(now);
        self.drm_update();
        if self.metrics_period != 0 && now.raw().is_multiple_of(self.metrics_period) {
            self.sample_metrics(shared, now);
        }
    }

    /// Event-indexed station walk: per lane, merge this cycle's
    /// arrivals (the calendar's current row), the I-tag bits and the
    /// stations where a head wants *this* lane, word by word, and visit
    /// only set bits, in ascending station order. A flit passing a
    /// station is not among them:
    /// it is never copied, routed or looked at. Correctness rests on
    /// `process_station(s)` being a no-op without one of those three
    /// events and only mutating state attached to station `s` (its
    /// slot, its ports' queues, its bridge side), so skipping idle
    /// stations and snapshotting each 64-station word before visiting
    /// it cannot change the outcome.
    fn sweep_active<const TRACE: bool>(&mut self, shared: &EngineShared, now: Cycle) {
        let stations = self.ring.stations as u64;
        let nwords = self.intent_bits[0].words().len();
        for li in 0..self.ring.lanes.len() {
            // Debug builds: the lane's calendar and I-tag words are true.
            self.ring.lanes[li].debug_check(&shared.route, self.ring.id);
            self.profile.lane_passes += 1;
            self.profile.stations_total += stations;
            for wi in 0..nwords {
                let mut w = self.event_word(li, wi);
                self.profile.stations_visited += u64::from(w.count_ones());
                while w != 0 {
                    let s = wi * 64 + w.trailing_zeros() as usize;
                    w &= w - 1;
                    self.process_station::<TRACE>(shared, now, li, s as u16);
                    if cfg!(debug_assertions) {
                        // The visit raised no event ahead of `s` in this
                        // word that the snapshot `w` lacks: the snapshot
                        // is sound because a visit touches only `s`.
                        let ahead = self.event_word(li, wi) & (!1u64 << (s % 64));
                        assert_eq!(ahead & !w, 0, "visiting {s} raised events ahead");
                    }
                }
            }
        }
    }

    /// Word `wi` of lane `li`'s events: this cycle's arrivals, the
    /// I-tags, and the stations where a head wants this lane.
    #[inline]
    fn event_word(&self, li: usize, wi: usize) -> u64 {
        let lane = &self.ring.lanes[li];
        lane.arrivals()[wi] | lane.itag_word(wi) | self.intent_bits[li].words()[wi]
    }

    /// Deliver head flits whose exit station equals their source node's
    /// own station without touching the ring (zero-hop path), visiting
    /// only the nodes whose cached intent says so.
    fn local_deliveries_fast<const TRACE: bool>(&mut self, shared: &EngineShared, now: Cycle) {
        // Debug builds: the intents this cycle starts from are true.
        self.debug_check_intents(shared);
        for wi in 0..self.intent_bits[LOCAL_BITS].words().len() {
            let mut w = self.intent_bits[LOCAL_BITS].words()[wi];
            while w != 0 {
                let s = wi * 64 + w.trailing_zeros() as usize;
                w &= w - 1;
                for port in 0..2 {
                    if let Some(local) = self.ports[s][port] {
                        if self.nodes[local as usize].want.intent == Intent::Local {
                            self.try_local_delivery::<TRACE>(shared, now, local as usize);
                        }
                    }
                }
            }
        }
    }

    /// Attempt the zero-hop local delivery for local node `i`'s head
    /// flit.
    fn try_local_delivery<const TRACE: bool>(
        &mut self,
        shared: &EngineShared,
        now: Cycle,
        i: usize,
    ) {
        let station = self.nodes[i].station;
        let Some(head) = self.nodes[i].inject.peek() else {
            return;
        };
        let hop = match shared.route.exit(self.ring.id, head.dst) {
            Some(h) => h,
            None => return,
        };
        if hop.station != station || hop.target == self.nodes[i].id {
            return;
        }
        let t = shared.node_loc[hop.target.index()].local as usize;
        // Normal-flit eject rule: leave reserved buffers alone.
        let free = self.nodes[t].eject.free();
        let reserved = self.nodes[t].etag_list.len();
        if free > reserved {
            let mut flit = self.nodes[i].inject.pop().expect("peeked");
            self.head_changed(shared, i);
            flit.itag_wait += self.nodes[i].starve;
            flit.injected_at = Some(now);
            self.stats.injected.inc();
            if TRACE {
                let record = TraceRecord {
                    cycle: now.raw(),
                    flit: flit.id,
                    ring: self.ring.id.0,
                    station,
                    lane: NO_LANE,
                    event: FlitEvent::Injected {
                        node: self.nodes[i].id.0,
                    },
                };
                self.trace.push(record);
            }
            self.finish_arrival::<TRACE>(now, t, flit, NO_LANE);
            self.nodes[i].starve = 0;
        }
    }

    /// The full cross-station evaluation for `(lane, station)`:
    /// arrival/ejection, injection arbitration (I-tag claim or
    /// round-robin), then starvation accounting and I-tag placement.
    /// It learns of an arrival from the lane's exit calendar and of what
    /// a head wants from the intent cache.
    fn process_station<const TRACE: bool>(
        &mut self,
        shared: &EngineShared,
        now: Cycle,
        li: usize,
        s: u16,
    ) {
        let ring_id = self.ring.id;
        // ---- arrival / ejection ----
        let lane = &mut self.ring.lanes[li];
        if lane.arrives(s) {
            let flit = lane.take_arrival(s);
            let hop = shared.route.exit(ring_id, flit.dst);
            let target = hop
                .expect("validated topology routes every destination")
                .target;
            self.arrive::<TRACE>(shared, now, li, s, target, flit);
        }
        // ---- injection ----
        let mut injected_port: Option<u8> = None;
        let slot_free = !self.ring.lanes[li].occupied(s);
        let wants_lane = Intent::Lane(li as u8);
        if slot_free {
            let itag = self.ring.lanes[li].itag_at(s);
            if let Some(owner) = itag {
                let loc = shared.node_loc[owner.index()];
                let o = loc.local as usize;
                if loc.ring == ring_id.0 && self.nodes[o].station == s {
                    let want = self.nodes[o].want;
                    if want.intent == wants_lane {
                        if TRACE {
                            let fid = self.nodes[o].inject.peek().expect("head checked").id;
                            let record = TraceRecord {
                                cycle: now.raw(),
                                flit: fid,
                                ring: ring_id.0,
                                station: s,
                                lane: li as u8,
                                event: FlitEvent::ITagClaimed { node: owner.0 },
                            };
                            self.trace.push(record);
                        }
                        self.inject_head::<TRACE>(shared, now, o, li, s, want.exit);
                        injected_port = self.ports[s as usize]
                            .iter()
                            .position(|&p| p == Some(o as u32))
                            .map(|p| p as u8);
                    }
                    // Claimed, or stale (the head now prefers the other
                    // lane or the queue drained): release the slot.
                    self.ring.lanes[li].take_itag(s);
                    self.nodes[o].itag_pending = false;
                }
                // Tag owned by a node elsewhere on the ring: slot stays
                // reserved and passes by.
            } else {
                // Round-robin arbitration between the two interfaces.
                let start = self.rr[s as usize][li];
                for off in 0..2u8 {
                    let port = (start + off) % 2;
                    let Some(local) = self.ports[s as usize][port as usize] else {
                        continue;
                    };
                    let ni = local as usize;
                    let want = self.nodes[ni].want;
                    if want.intent == wants_lane {
                        self.inject_head::<TRACE>(shared, now, ni, li, s, want.exit);
                        self.rr[s as usize][li] = (port + 1) % 2;
                        injected_port = Some(port);
                        break;
                    }
                }
            }
        }
        // ---- starvation accounting & I-tag placement ----
        for port in 0..2u8 {
            if injected_port == Some(port) {
                continue;
            }
            let Some(local) = self.ports[s as usize][port as usize] else {
                continue;
            };
            let ni = local as usize;
            if self.nodes[ni].want.intent != wants_lane {
                continue;
            }
            self.nodes[ni].starve += 1;
            if self.nodes[ni].starve >= self.nodes[ni].drm_watch_at {
                let si = self.nodes[ni]
                    .side
                    .expect("only endpoints have a threshold");
                self.drm_watch.set(si as usize);
            }
            self.stats.inject_losses.inc();
            if TRACE {
                let fid = self.nodes[ni].inject.peek().expect("head checked").id;
                let record = TraceRecord {
                    cycle: now.raw(),
                    flit: fid,
                    ring: ring_id.0,
                    station: s,
                    lane: li as u8,
                    event: FlitEvent::InjectLost {
                        node: self.nodes[ni].id.0,
                    },
                };
                self.trace.push(record);
            }
            if self.nodes[ni].starve >= shared.cfg.itag_threshold
                && !self.nodes[ni].itag_pending
                && self.ring.lanes[li].itag_at(s).is_none()
            {
                self.ring.lanes[li].set_itag(s, self.nodes[ni].id);
                self.nodes[ni].itag_pending = true;
                self.nodes[ni].itags_here += 1;
                self.stats.itags_placed.inc();
                if TRACE {
                    let fid = self.nodes[ni].inject.peek().expect("head checked").id;
                    let record = TraceRecord {
                        cycle: now.raw(),
                        flit: fid,
                        ring: ring_id.0,
                        station: s,
                        lane: li as u8,
                        event: FlitEvent::ITagSet {
                            node: self.nodes[ni].id.0,
                        },
                    };
                    self.trace.push(record);
                }
            }
        }
    }

    /// Move local node `ni`'s head flit, which leaves this ring at
    /// station `exit`, into the (empty) slot at its station.
    fn inject_head<const TRACE: bool>(
        &mut self,
        shared: &EngineShared,
        now: Cycle,
        ni: usize,
        li: usize,
        s: u16,
        exit: u16,
    ) {
        let mut flit = self.nodes[ni].inject.pop().expect("head checked");
        self.head_changed(shared, ni);
        flit.itag_wait += self.nodes[ni].starve;
        if flit.injected_at.is_none() {
            flit.injected_at = Some(now);
            self.stats.injected.inc();
            if TRACE {
                let record = TraceRecord {
                    cycle: now.raw(),
                    flit: flit.id,
                    ring: self.ring.id.0,
                    station: s,
                    lane: li as u8,
                    event: FlitEvent::Injected {
                        node: self.nodes[ni].id.0,
                    },
                };
                self.trace.push(record);
            }
        }
        self.ring.lanes[li].put_flit(s, flit, exit);
        self.nodes[ni].starve = 0;
    }

    /// Handle a flit arriving at its exit station: eject, SWAP, or
    /// deflect with an E-tag.
    fn arrive<const TRACE: bool>(
        &mut self,
        shared: &EngineShared,
        now: Cycle,
        li: usize,
        s: u16,
        target: NodeId,
        mut flit: Flit,
    ) {
        let t = shared.node_loc[target.index()].local as usize;
        let free = self.nodes[t].eject.free();
        let reserved_count = self.nodes[t].etag_list.len();

        let may_eject = if flit.etag {
            // A returning E-tag flit may use a freed buffer once its
            // reservation is covered by the free count.
            match self.nodes[t].etag_list.iter().position(|&id| id == flit.id) {
                Some(pos) => free > pos,
                None => free > reserved_count, // tagged for another node earlier
            }
        } else {
            free > reserved_count
        };

        if may_eject {
            if flit.etag {
                self.consume_etag(t, flit.id);
                flit.etag = false;
            }
            self.finish_arrival::<TRACE>(now, t, flit, li as u8);
            return;
        }

        // SWAP path (§4.4): bridge endpoint in DRM (or permanently, in
        // escape-buffer mode) with escape space.
        if let Some(si) = self.nodes[t].side {
            let si = si as usize;
            let active = self.sides[si].drm || self.sides[si].cfg.escape_always;
            if active
                && self.sides[si].reserved.len() < self.sides[si].cfg.reserved_cap
                && !self.nodes[t].eject.is_empty()
            {
                // Push the Eject Queue head into a reserved Tx buffer…
                let escaped = self.nodes[t].eject.pop().expect("non-empty");
                self.sides[si].reserved.push_back(escaped);
                self.intake.set(si);
                // …eject the traversing flit into the vacated space…
                if flit.etag {
                    self.consume_etag(t, flit.id);
                    flit.etag = false;
                }
                let fid = flit.id;
                flit.settle_recirc(now);
                self.nodes[t].eject.push(flit).expect("space just vacated");
                if TRACE {
                    let record = TraceRecord {
                        cycle: now.raw(),
                        flit: fid,
                        ring: self.ring.id.0,
                        station: s,
                        lane: li as u8,
                        event: FlitEvent::Ejected { node: target.0 },
                    };
                    self.trace.push(record);
                }
                // …and, in SWAP mode, swap the Inject Queue head onto
                // the ring slot in the same cycle. The escape-buffer
                // alternative lacks this simultaneous injection — that
                // is exactly the latency edge §4.4 claims for SWAP.
                if self.sides[si].drm && self.nodes[t].inject.peek().is_some() {
                    // Whatever lane the head would have chosen, it
                    // takes this slot; if it leaves the ring here, at
                    // `s`, that is one full lap away.
                    let exit = self.nodes[t].want.exit;
                    self.inject_head::<TRACE>(shared, now, t, li, s, exit);
                    self.stats.swaps.inc();
                    if TRACE {
                        let record = TraceRecord {
                            cycle: now.raw(),
                            flit: fid,
                            ring: self.ring.id.0,
                            station: s,
                            lane: li as u8,
                            event: FlitEvent::SwapTriggered { node: target.0 },
                        };
                        self.trace.push(record);
                    }
                }
                return;
            }
        }

        // Deflect: place an E-tag reservation (once) and circle on.
        let had_etag = flit.etag;
        if !flit.etag {
            flit.etag = true;
            self.nodes[t].etag_list.push_back(flit.id);
            self.stats.etags_placed.inc();
            if TRACE {
                let record = TraceRecord {
                    cycle: now.raw(),
                    flit: flit.id,
                    ring: self.ring.id.0,
                    station: s,
                    lane: li as u8,
                    event: FlitEvent::ETagReserved { target: target.0 },
                };
                self.trace.push(record);
            }
        }
        flit.deflections += 1;
        if flit.deflected_since.is_none() {
            // Open a re-circulation episode: every ring cycle from here
            // until the successful ejection is deflection penalty.
            flit.deflected_since = Some(now);
        }
        if had_etag {
            // A deflection of an already-tagged flit defeats the
            // one-lap guarantee once more (§4.1.2).
            flit.etag_laps += 1;
        }
        // Flow accounting charges these counters lazily (at delivery
        // and at sampling boundaries) — nothing to do here.
        self.stats.deflections.inc();
        self.nodes[t].deflected_here += 1;
        if TRACE {
            let record = TraceRecord {
                cycle: now.raw(),
                flit: flit.id,
                ring: self.ring.id.0,
                station: s,
                lane: li as u8,
                event: FlitEvent::Deflected { target: target.0 },
            };
            self.trace.push(record);
        }
        // Back into the slot it came from: one lap to the next try.
        self.ring.lanes[li].put_flit(s, flit, s);
    }

    fn consume_etag(&mut self, t: usize, flit_id: u64) {
        if let Some(pos) = self.nodes[t].etag_list.iter().position(|&id| id == flit_id) {
            self.nodes[t].etag_list.remove(pos);
        }
    }

    /// Complete an arrival into local node `t`'s eject queue, recording
    /// delivery stats for devices. `lane` is the ring lane the flit
    /// left (or [`NO_LANE`] for the zero-hop local path).
    fn finish_arrival<const TRACE: bool>(
        &mut self,
        now: Cycle,
        t: usize,
        mut flit: Flit,
        lane: u8,
    ) {
        flit.settle_recirc(now);
        let is_device = matches!(self.nodes[t].kind, NodeKind::Device);
        if is_device {
            self.stats.record_delivery(&flit, now);
            if self.flow_topk != 0 {
                // Charge the delivery plus whatever deflections and
                // E-tag laps the window sweeps have not yet seen.
                self.flow_buf.push((
                    flit.src.0,
                    flit.dst.0,
                    FlowDelta {
                        delivered: 1,
                        latency_sum: flit.total_latency(now),
                        itag_waits: u64::from(flit.itag_wait),
                        deflections: u64::from(flit.deflections - flit.charged_deflections),
                        etag_laps: u64::from(flit.etag_laps - flit.charged_etag_laps),
                    },
                ));
            }
            if let Some(p) = &mut self.nodes[t].probe {
                p.record(now, flit.payload_bytes as u64);
            }
        }
        if TRACE {
            let (ring, station) = (self.ring.id.0, self.nodes[t].station);
            let cycle = now.raw();
            self.trace.push(TraceRecord {
                cycle,
                flit: flit.id,
                ring,
                station,
                lane,
                event: FlitEvent::Ejected {
                    node: self.nodes[t].id.0,
                },
            });
            if is_device {
                self.trace.push(TraceRecord {
                    cycle,
                    flit: flit.id,
                    ring,
                    station,
                    lane,
                    event: FlitEvent::Delivered {
                        node: self.nodes[t].id.0,
                        class: flit.class.index() as u8,
                    },
                });
            }
        }
        match self.nodes[t].side {
            Some(si) => self.intake.set(si as usize),
            None => self.delivered.set(t),
        }
        self.nodes[t]
            .eject
            .push(flit)
            .expect("caller checked eject space");
    }

    /// Pull flits from bridge endpoint eject queues into the outbound
    /// `tx` mailboxes, draining reserved escape buffers first. Visits
    /// only the sides marked as having intake work; a side that staged
    /// anything is marked for barrier 2, and one left with nothing to
    /// pull loses its mark.
    fn bridge_intake<const TRACE: bool>(&mut self, now: Cycle) {
        let nraw = now.raw();
        for wi in 0..self.intake.words().len() {
            let w = self.intake.words()[wi];
            self.profile.side_visits += u64::from(w.count_ones());
            for si in word_ones(wi, w) {
                self.intake_side::<TRACE>(nraw, si);
            }
        }
    }

    /// [`RingShard::bridge_intake`] for side `si`.
    fn intake_side<const TRACE: bool>(&mut self, nraw: u64, si: usize) {
        let (ep, latency, width, cap) = {
            let side = &self.sides[si];
            (
                side.endpoint as usize,
                side.cfg.latency as u64,
                side.cfg.width_flits_per_cycle as usize,
                side.cfg.buffer_cap,
            )
        };
        let mut moved = 0usize;
        // Priority: reserved escape buffers drain first.
        while moved < width
            && !self.sides[si].reserved.is_empty()
            && self.sides[si].pipe_len() < cap
        {
            let mut flit = self.sides[si].reserved.pop_front().expect("non-empty");
            flit.ring_changes += 1;
            if TRACE {
                self.push_bridge_enqueued(nraw, si, ep, flit.id);
            }
            self.sides[si].tx.push_back((nraw + latency, flit));
            self.sides[si].tx_pushed += 1;
            moved += 1;
        }
        while moved < width && !self.nodes[ep].eject.is_empty() && self.sides[si].pipe_len() < cap {
            let mut flit = self.nodes[ep].eject.pop().expect("non-empty");
            flit.ring_changes += 1;
            if TRACE {
                self.push_bridge_enqueued(nraw, si, ep, flit.id);
            }
            self.sides[si].tx.push_back((nraw + latency, flit));
            self.sides[si].tx_pushed += 1;
            moved += 1;
        }
        if moved != 0 {
            self.staged.set(si);
            self.sides[si].last_staged = (nraw, moved);
        }
        if self.sides[si].reserved.is_empty() && self.nodes[ep].eject.is_empty() {
            self.intake.clear(si);
        }
    }

    /// Record a flit entering the bridge pipeline at endpoint `ep`.
    fn push_bridge_enqueued(&mut self, cycle: u64, si: usize, ep: usize, flit: u64) {
        self.trace.push(TraceRecord {
            cycle,
            flit,
            ring: self.ring.id.0,
            station: self.nodes[ep].station,
            lane: NO_LANE,
            event: FlitEvent::BridgeEnqueued {
                bridge: self.sides[si].bridge.index() as u16,
            },
        });
    }

    /// Enter/exit deadlock resolution mode on the sides under DRM
    /// watch. Reads only a side's escape buffers and its endpoint's
    /// starvation state — both shard-local. A side neither in DRM nor
    /// starving at its threshold afterwards leaves the watch.
    fn drm_update(&mut self) {
        for wi in 0..self.drm_watch.words().len() {
            let w = self.drm_watch.words()[wi];
            self.profile.side_visits += u64::from(w.count_ones());
            for si in word_ones(wi, w) {
                let ep = self.sides[si].endpoint as usize;
                let starve = self.nodes[ep].starve;
                let inject_empty = self.nodes[ep].inject.is_empty();
                let side = &mut self.sides[si];
                let starving = starve >= side.cfg.deadlock_threshold;
                if !side.drm {
                    if starving && !inject_empty {
                        side.drm = true;
                        side.drm_entries += 1;
                        self.stats.drm_entries.inc();
                    }
                } else if side.reserved.len() <= side.cfg.drm_exit_occupancy && !starving {
                    side.drm = false;
                }
                if !side.drm && !starving {
                    self.drm_watch.clear(si);
                }
            }
        }
    }

    /// Debug builds: walk every node and check the delivery index — a
    /// bit is set exactly where a device has mail waiting. Called after
    /// the station sweep, so it sees both this cycle's arrivals and the
    /// pops consumers made since the last cycle.
    pub(crate) fn debug_check_delivered(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        for (i, node) in self.nodes.iter().enumerate() {
            let device = matches!(node.kind, NodeKind::Device);
            assert_eq!(
                self.delivered.test(i),
                device && !node.eject.is_empty(),
                "{} node {}: delivery bit disagrees with its Eject Queue",
                self.ring.id,
                node.id
            );
        }
    }

    /// Debug builds: walk every side and check the indices the
    /// event-indexed bridge phases read against the state they
    /// summarise — `rx_due` against the inbox heads, and that a side
    /// without an intake mark or off the DRM watch really has nothing
    /// for those phases to do. Called between the station sweep and
    /// intake, the point where a missed wake-up would first be skipped.
    /// (`crate::epoch::debug_check_barrier` checks what needs the peer.)
    fn debug_check_side_indices(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let ring = self.ring.id;
        let mut earliest = u64::MAX;
        for (si, side) in self.sides.iter().enumerate() {
            let node = &self.nodes[side.endpoint as usize];
            assert_eq!(
                node.side,
                Some(si as u32),
                "{ring} side {si}: endpoint index"
            );
            assert_eq!(
                side.rx_due,
                side.head_due(),
                "{ring} side {si}: rx_due disagrees with the inbox head"
            );
            earliest = earliest.min(side.rx_due);
            assert!(
                self.intake.test(si) || (node.eject.is_empty() && side.reserved.is_empty()),
                "{ring} side {si}: intake work without a mark"
            );
            let watch_at = if side.drm_capable() {
                side.cfg.deadlock_threshold
            } else {
                u32::MAX
            };
            assert_eq!(
                node.drm_watch_at, watch_at,
                "{ring} side {si}: watch threshold"
            );
            let watch = side.drm || node.starve >= side.cfg.deadlock_threshold;
            assert!(
                !self.drm_watch.test(si) || side.drm_capable(),
                "{ring} side {si}: DRM watch on a side DRM does not apply to"
            );
            assert!(
                self.drm_watch.test(si) || !(watch && side.drm_capable()),
                "{ring} side {si}: DRM transition due without a watch mark"
            );
            assert!(
                side.tx.is_empty() && !self.staged.test(si) && !self.popped.test(si),
                "{ring} side {si}: a barrier left mail or a mark behind"
            );
        }
        assert_eq!(
            self.rx_due, earliest,
            "{ring}: shard rx_due is not the minimum"
        );
    }

    // ------------------------------------------------------------------
    // Flow attribution (shard-local, deterministic)
    // ------------------------------------------------------------------

    /// Switch flow accounting on with a Space-Saving capacity of `k`
    /// per ring (or off with 0), discarding any prior table. In-flight
    /// charge sweeps run every `stride` sampling windows (clamped to at
    /// least 1).
    pub(crate) fn enable_flow_accounting(&mut self, k: usize, stride: usize) {
        self.flow_topk = k;
        self.flows = FlowTable::new(k);
        self.flow_buf.clear();
        self.link_util = vec![0; self.ring.stations as usize];
        self.flow_charge_stride = stride.max(1);
        self.windows_until_charge = self.flow_charge_stride;
    }

    /// Force the flow table exact *now*: sweep in-flight flits, then
    /// flush everything staged. Called before a postmortem bundle
    /// freezes the table and at `finish_metrics`, so captured flow
    /// rankings never lag behind the charge stride. Resets the stride
    /// countdown — the next window boundary will not sweep again.
    pub(crate) fn charge_and_flush(&mut self) {
        if self.flow_topk == 0 {
            return;
        }
        self.charge_inflight();
        self.flush_flow_events();
        // +1 because a window boundary in the same cycle (finish's
        // final sample) will decrement before checking.
        self.windows_until_charge = self.flow_charge_stride + 1;
    }

    /// Apply the staged flow deltas in sorted (src, dst) order, one
    /// batched table update per distinct flow. Eviction in the
    /// Space-Saving table depends on the sequence of keys it sees; the
    /// sort fixes that sequence (see `flow_buf`), and summing a flow's
    /// run of deltas keeps a deflection storm from paying one table
    /// lookup per event.
    fn flush_flow_events(&mut self) {
        if self.flow_buf.is_empty() {
            return;
        }
        let mut buf = core::mem::take(&mut self.flow_buf);
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
        self.flow_buf = buf;
    }

    /// Credit every station whose ring slot holds a flit with one link
    /// occupancy sample, straight from the occupancy bitsets — no flit
    /// memory touched. Runs at every sampling boundary; the sum over
    /// windows approximates relative link load without per-tick cost.
    fn sample_links(&mut self) {
        for lane in &self.ring.lanes {
            for s in lane.occupied_stations() {
                self.link_util[s] += 1;
            }
        }
    }

    /// Sweep the in-flight flits: charge each one's as-yet-uncharged
    /// deflections and E-tag laps to its flow. Runs every
    /// `flow_charge_stride`-th metrics window plus whenever the table
    /// is frozen (bundle capture, finish), so a wedged flow
    /// (circulating forever, delivering nothing) still climbs the
    /// table while the deflection hot path itself carries no
    /// accounting work.
    fn charge_inflight(&mut self) {
        let flow_buf = &mut self.flow_buf;
        for lane in &mut self.ring.lanes {
            for (_s, flit) in lane.flits_mut() {
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

    // ------------------------------------------------------------------
    // Observatory sampling (shard-local, deterministic)
    // ------------------------------------------------------------------

    /// Current cumulative counter readings of this shard, in
    /// [`WindowCounters`] form.
    pub(crate) fn counters_now(&self) -> WindowCounters {
        WindowCounters {
            enqueued: self.stats.enqueued.get(),
            injected: self.stats.injected.get(),
            inject_losses: self.stats.inject_losses.get(),
            delivered: self.stats.delivered.get(),
            delivered_bytes: self.stats.delivered_bytes.get(),
            deflections: self.stats.deflections.get(),
            itags_placed: self.stats.itags_placed.get(),
            etags_placed: self.stats.etags_placed.get(),
            drm_entries: self.stats.drm_entries.get(),
            swaps: self.stats.swaps.get(),
            bridge_crossings: self.stats.bridge_crossings.get(),
        }
    }

    /// Reset the window base to the current counter readings (called
    /// when sampling is switched on, so the first window excludes
    /// pre-enable history).
    pub(crate) fn rebase_metrics(&mut self) {
        self.metrics_base = self.counters_now();
    }

    /// Stage one metrics sample: window counter deltas since the last
    /// sample plus instantaneous ring/bridge gauges. Runs inside the
    /// per-ring phase — it reads only shard-local state, so samples do
    /// not depend on the order the shards run in. The engine commits
    /// the staged windows in ring order at the end of the cycle.
    pub(crate) fn sample_metrics(&mut self, shared: &EngineShared, now: Cycle) {
        let now_counters = self.counters_now();
        let counters = now_counters.delta_since(&self.metrics_base);
        self.metrics_base = now_counters;

        let mut gauges = RingGauges {
            occupancy: self.ring.occupancy() as u64,
            capacity: self.ring.capacity() as u64,
            itag_slots: self.ring.itag_count() as u64,
            ..RingGauges::default()
        };
        for node in &self.nodes {
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

        let bridges = self
            .sides
            .iter()
            .map(|side| BridgeGauges {
                bridge: side.bridge.index() as u16,
                side: side.side,
                ring: self.ring.id.0,
                tx_pipe: side.pipe_gauge(now.raw()) as u32,
                rx_depth: side.rx.len() as u32,
                reserved: side.reserved.len() as u32,
                in_drm: side.drm,
                drm_entries: side.drm_entries,
            })
            .collect();

        let (flows, links) = if self.flow_topk == 0 {
            (Vec::new(), Vec::new())
        } else {
            // Link occupancy and delivery flushes run every window;
            // the in-flight charge sweep only every
            // `flow_charge_stride`-th, to keep steady-state cost down.
            // Forced sweeps (bundle capture, finish) make the table
            // exact whenever it is actually frozen.
            self.sample_links();
            self.windows_until_charge -= 1;
            if self.windows_until_charge == 0 {
                self.charge_inflight();
                self.windows_until_charge = self.flow_charge_stride;
            }
            self.flush_flow_events();
            (self.flows.ranked(), self.link_util.clone())
        };

        self.staged_window = Some(RingWindow {
            ring: self.ring.id.0,
            counters,
            gauges,
            bridges,
            flows,
            links,
        });
    }

    /// This ring's slot pool as a wait-graph node: occupancy, capacity
    /// and monotone progress (injections + deliveries + bridge
    /// crossings), all O(1) reads of owner-held state.
    pub(crate) fn ring_node(&self) -> WaitNode {
        WaitNode {
            id: ResourceId::Ring {
                ring: self.ring.id.0,
            },
            occupancy: self.ring.occupancy() as u64,
            capacity: self.ring.capacity() as u64,
            progress: self.stats.injected.get()
                + self.stats.delivered.get()
                + self.stats.bridge_crossings.get(),
        }
    }

    /// Contribute this ring's rows to a wait census (see
    /// [`crate::census`]): per-bridge-side transit demand (who on this
    /// ring wants to cross where) and the placement of every resident
    /// flit's packet. Runs between ticks on owner-held state;
    /// iteration is in lane/station/side order, so the contribution is
    /// deterministic. The escape rows are the
    /// engine's to build: each pairs two sides that live in different
    /// shards.
    pub(crate) fn wait_census_part(&self, shared: &EngineShared, census: &mut WaitCensus) {
        let ring_id = self.ring.id.0;
        // Transit demand: flits resident on the lanes whose route exits
        // over a bridge, accumulated per (bridge, side).
        let mut transit: Vec<TransitCensus> = Vec::new();
        let mut note_transit = |bridge: u16, side: u8, packet: u64| match transit
            .iter_mut()
            .find(|t| t.bridge == bridge && t.side == side)
        {
            Some(t) => t.min_packet = t.min_packet.min(packet),
            None => transit.push(TransitCensus {
                bridge,
                side,
                min_packet: packet,
            }),
        };
        for lane in &self.ring.lanes {
            for flit in lane.flits() {
                let packet = census::packet_of(flit.token);
                census
                    .packet_where
                    .push((packet, PacketPlace::Ring { ring: ring_id }));
                if let Some(hop) = shared.route.exit(self.ring.id, flit.dst) {
                    if let NodeKind::BridgeEndpoint { bridge, side } =
                        shared.topo.nodes()[hop.target.index()].kind
                    {
                        note_transit(bridge.index() as u16, side, packet);
                    }
                }
            }
        }
        // Flits queued to inject are pinned to this ring's slot pool
        // exactly like resident flits — they only matter for packet
        // placement, not occupancy (they hold no slot yet).
        for node in &self.nodes {
            for flit in node.inject.iter() {
                census.packet_where.push((
                    census::packet_of(flit.token),
                    PacketPlace::Ring { ring: ring_id },
                ));
            }
        }
        for side in &self.sides {
            let bridge = side.bridge.index() as u16;
            let escape = |side| PacketPlace::Escape { bridge, side };
            let outbound = side.tx.iter().map(|(_, f)| f).chain(&side.reserved);
            for f in outbound {
                census
                    .packet_where
                    .push((census::packet_of(f.token), escape(side.side)));
            }
            // Inbound flits belong to the *peer's* escape resource: they
            // are its pipe contents in flight toward us.
            for (_, f) in &side.rx {
                census
                    .packet_where
                    .push((census::packet_of(f.token), escape(1 - side.side)));
            }
        }
        transit.sort_unstable_by_key(|t| (t.bridge, t.side));
        census.rings.push(RingCensus {
            ring: ring_id,
            transit,
        });
    }

    /// Flits physically inside this shard (queues, slots, mailboxes,
    /// escape buffers), for conservation checks.
    pub(crate) fn resident_flits(&self) -> u64 {
        let mut n = 0u64;
        for node in &self.nodes {
            n += (node.inject.len() + node.eject.len()) as u64;
        }
        n += self.ring.occupancy() as u64;
        for side in &self.sides {
            n += side.resident_flits() as u64;
        }
        n
    }
}
