//! Per-ring shards: the unit of state ownership.
//!
//! A [`RingShard`] owns everything the paper's §4 station logic can
//! touch while processing one ring for one cycle: the ring's lanes and
//! their occupancy bitsets and exit calendars, the node interfaces
//! attached to its stations (inject/eject queues, starvation counters,
//! E-tag lists, cached head intent), what belongs to its side of each
//! bridge ([`BridgeSide`]: endpoint and DRM state), the round-robin
//! pointers and the per-intent station bitsets, plus its own
//! [`RingCounters`], [`TickProfile`] and [`TraceBuffer`].
//!
//! Of the observer a shard keeps only what the hot path writes: the
//! trace buffer, and the per-flow deltas it stages at deliveries while
//! flow accounting is on (`flow_on`, `flow_buf`). Everything else the
//! observer needs — window counter bases, flow tables, link heat — is
//! the observatory's (`crate::observe`), which reads the shard after
//! the cycle.
//!
//! The station logic is ring-local: a flit leaves its ring only by
//! being pushed into a bridge escape ([`crate::bridge`]), which the
//! network owns and lends to each phase, and it cannot come out of the
//! escape in the cycle it went in. The engine sums the shards' counters
//! and profiles and drains their trace buffers in ascending ring order;
//! the delivery histograms are the network's ([`DeliveryHists`]), lent
//! to the cycle like the escapes and the slab. Immutable inputs
//! every shard needs (config, route table, global→local id maps) live
//! in one shared [`EngineShared`].
//!
//! The bridge phases are event-indexed like the station sweep: delivery
//! is one compare against the ring's due cycle while nothing landing on
//! it has matured, and two side bitsets — intake work and DRM watch —
//! let intake and DRM bookkeeping touch only the sides where something
//! is due, in ascending side order (DESIGN.md §21).
//!
//! Methods take a `const TRACE: bool` parameter instead of a sink type:
//! with `TRACE = false` every record construction folds away exactly
//! like the `S::ENABLED` guards did in the monolith, and shards stay
//! independent of sink types.

use crate::bits::{word_ones, BitRing};
use crate::bridge::{BridgeSide, Bridges, Escape};
use crate::config::NetworkConfig;
use crate::ids::{NodeId, RingId};
use crate::queue::Fifo;
use crate::ring::Ring;
use crate::route::{ring_travel, RouteTable};
use crate::slab::{FlitRef, FlitSlab};
use crate::stats::{DeliveryHists, RingCounters, TickProfile};
use crate::topology::{NodeKind, Topology};
use noc_sim::Cycle;
use noc_telemetry::{FlitEvent, FlowDelta, TraceBuffer, TraceRecord, NO_FLIT, NO_LANE};
use std::collections::VecDeque;

/// Where a global node id lives: which ring shard, at which index.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeLoc {
    pub ring: u16,
    pub local: u32,
}

/// Immutable engine inputs shared by all shards.
#[derive(Debug, Clone)]
pub(crate) struct EngineShared {
    pub cfg: NetworkConfig,
    pub topo: Topology,
    pub route: RouteTable,
    /// Global node id → owning shard and local index.
    pub node_loc: Vec<NodeLoc>,
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
    /// Handles of the flits queued to inject, bodies in the network's
    /// slab ([`crate::slab`]).
    pub inject: Fifo<FlitRef>,
    /// Handles of the flits ejected here, awaiting the device or the
    /// bridge intake.
    pub eject: Fifo<FlitRef>,
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
    /// Sides with intake work: a flit in the endpoint's Eject Queue or
    /// in the outbound reserved buffers. Set where a flit enters
    /// either, cleared by intake once both are empty. Like the set
    /// below, one bit per entry of `sides`, walked in ascending order.
    intake: BitRing,
    /// Sides on DRM watch: in deadlock resolution mode, or with the
    /// endpoint's `starve` at the deadlock threshold. Only DRM-capable
    /// sides are ever marked.
    drm_watch: BitRing,
    /// Devices with mail: bit `i` is set iff `nodes[i]` is a device
    /// whose Eject Queue is non-empty. Set by `finish_arrival`, cleared
    /// by `Network::pop_delivered` — the only two places a device's
    /// Eject Queue changes (SWAP and intake touch bridge endpoints
    /// only). [`crate::Network::nodes_with_deliveries`] walks it.
    pub delivered: BitRing,
    /// This ring's counters; the network's delivery histograms are
    /// lent to the cycle instead (`crate::epoch`).
    pub counters: RingCounters,
    /// Shard-local sweep instrumentation (`ticks` stays 0 here; the
    /// engine adds the tick count on top when merging).
    pub profile: TickProfile,
    /// Events staged this cycle, fed to the sink by the engine in ring
    /// order at the end of the cycle.
    pub trace: TraceBuffer,
    /// Whether flow accounting is on: the observatory's flight recorder
    /// asked for per-flow tables (`crate::observe`).
    pub flow_on: bool,
    /// Per-flow deltas staged since the observatory's last flush, only
    /// while `flow_on`. Charging is lazy — deflections accumulate on the
    /// flit itself and are converted to deltas at delivery and at
    /// metrics sampling boundaries — so the deflection hot path stays
    /// free of accounting work.
    pub flow_buf: Vec<(u32, u32, FlowDelta)>,
    /// The last cycle a flit on this ring moved forward: injected onto
    /// the ring, ejected into an Eject Queue (SWAP's included), taken
    /// into a bridge or delivered out of one. Deflections and I-tag
    /// moves leave it alone. [`crate::Network::stalled_for`] reads it.
    pub progress_at: u64,
}

/// Build the shared inputs, one shard per ring and the bridge escapes
/// from a validated topology.
pub(crate) fn build(topo: Topology, cfg: NetworkConfig) -> (EngineShared, Vec<RingShard>, Bridges) {
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
            intake: BitRing::new(nsides),
            drm_watch: BitRing::new(nsides),
            delivered: BitRing::new(0),
            counters: RingCounters::default(),
            profile: TickProfile::default(),
            trace: TraceBuffer::default(),
            flow_on: false,
            flow_buf: Vec::new(),
            progress_at: 0,
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
        });
    }
    for shard in &mut shards {
        shard.delivered = BitRing::new(shard.nodes.len());
    }
    let mut escapes = Vec::with_capacity(2 * topo.bridges().len());
    for b in topo.bridges() {
        let eps = [b.a, b.b].map(|ep| node_loc[ep.index()]);
        for (side, loc) in eps.into_iter().enumerate() {
            let escape = Escape {
                cfg: b.config.clone(),
                to_ring: eps[1 - side].ring,
                fifo: VecDeque::new(),
                reserved: VecDeque::new(),
                pushed: 0,
                popped: 0,
                last_push: (0, 0),
            };
            let shard = &mut shards[loc.ring as usize];
            let idx = shard.sides.len();
            shard.nodes[loc.local as usize].side = Some(idx as u32);
            shard.sides.push(BridgeSide {
                bridge: b.id,
                side: side as u8,
                endpoint: loc.local,
                drm: false,
                drm_entries: 0,
            });
            if escape.drm_capable() {
                shard.nodes[loc.local as usize].drm_watch_at = b.config.deadlock_threshold;
                // A zero threshold is met before the first lost arbitration.
                if b.config.deadlock_threshold == 0 {
                    shard.drm_watch.set(idx);
                }
            }
            escapes.push(escape);
        }
    }
    let bridges = Bridges {
        escapes,
        due: vec![u64::MAX; shards.len()],
    };
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
        max_epoch,
    };
    (shared, shards, bridges)
}

impl RingShard {
    /// A trace record of `event` at `station` on this ring. Every call
    /// sits behind a `TRACE` (or `S::ENABLED`) gate, so with tracing
    /// off the record is never built.
    #[inline]
    pub(crate) fn record(
        &self,
        cycle: u64,
        flit: u64,
        station: u16,
        lane: u8,
        event: FlitEvent,
    ) -> TraceRecord {
        TraceRecord {
            cycle,
            flit,
            ring: self.ring.id.0,
            station,
            lane,
            event,
        }
    }

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
    // Phase 1: bridge delivery (this shard + the escapes landing on it)
    // ------------------------------------------------------------------

    /// Move matured flits from the escapes landing on this ring into
    /// their endpoint inject queues. Returns at once while nothing here
    /// is due; otherwise visits the due sides in ascending order and
    /// re-derives the ring's due cycle.
    pub(crate) fn phase_deliver<const TRACE: bool>(
        &mut self,
        shared: &EngineShared,
        bridges: &mut Bridges,
        slab: &FlitSlab,
        now: Cycle,
    ) {
        let nraw = now.raw();
        let ring = self.ring.id.index();
        if bridges.due[ring] > nraw {
            return;
        }
        let mut earliest = u64::MAX;
        for si in 0..self.sides.len() {
            let inbound = &mut bridges.escapes[self.sides[si].inbound()];
            if inbound.head_due() <= nraw {
                self.profile.side_visits += 1;
                self.deliver_side::<TRACE>(shared, inbound, slab, nraw, si);
            }
            earliest = earliest.min(inbound.head_due());
        }
        bridges.due[ring] = earliest;
    }

    /// Drain side `si`'s matured flits from `inbound` into its
    /// endpoint's inject queue until the head lies in the future or the
    /// queue is full.
    fn deliver_side<const TRACE: bool>(
        &mut self,
        shared: &EngineShared,
        inbound: &mut Escape,
        slab: &FlitSlab,
        nraw: u64,
        si: usize,
    ) {
        let ep = self.sides[si].endpoint as usize;
        while inbound.head_due() <= nraw {
            if self.nodes[ep].inject.is_full() {
                if TRACE {
                    // Matured flit held in the pipeline by a full
                    // endpoint Inject Queue: backpressure.
                    let fid = inbound.fifo.front().map_or(NO_FLIT, |&(_, f)| slab[f].id);
                    let bridge = self.sides[si].bridge.index() as u16;
                    let station = self.nodes[ep].station;
                    let event = FlitEvent::BridgeStalled { bridge };
                    let record = self.record(nraw, fid, station, NO_LANE, event);
                    self.trace.push(record);
                }
                break;
            }
            let (_, flit) = inbound.fifo.pop_front().expect("due implies non-empty");
            inbound.popped += 1;
            self.nodes[ep].inject.push(flit).expect("checked not full");
            if self.nodes[ep].inject.len() == 1 {
                self.head_changed(shared, ep);
            }
            self.counters.bridge_crossings += 1;
            self.progress_at = nraw;
        }
    }

    // ------------------------------------------------------------------
    // Phase 2: the per-ring cycle (touches only this shard)
    // ------------------------------------------------------------------

    /// The fused per-ring portion of one tick: zero-hop local
    /// deliveries, the station sweep, lane advancement, bridge intake
    /// (pushed into the outbound escapes) and DRM bookkeeping.
    pub(crate) fn phase_cycle<const TRACE: bool>(
        &mut self,
        shared: &EngineShared,
        bridges: &mut Bridges,
        slab: &mut FlitSlab,
        hists: &mut DeliveryHists,
        now: Cycle,
    ) {
        self.local_deliveries_fast::<TRACE>(shared, slab, hists, now);
        self.sweep_active::<TRACE>(shared, bridges, slab, hists, now);
        for lane in &mut self.ring.lanes {
            lane.advance();
        }
        self.debug_check_delivered();
        self.debug_check_side_indices(bridges);
        self.bridge_intake::<TRACE>(bridges, slab, now);
        self.drm_update(bridges);
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
    /// it cannot change the outcome. (A SWAP at `s` also fills the
    /// reserved buffers of the bridge side attached there.)
    fn sweep_active<const TRACE: bool>(
        &mut self,
        shared: &EngineShared,
        bridges: &mut Bridges,
        slab: &mut FlitSlab,
        hists: &mut DeliveryHists,
        now: Cycle,
    ) {
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
                    self.process_station::<TRACE>(shared, bridges, slab, hists, now, li, s as u16);
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
    fn local_deliveries_fast<const TRACE: bool>(
        &mut self,
        shared: &EngineShared,
        slab: &mut FlitSlab,
        hists: &mut DeliveryHists,
        now: Cycle,
    ) {
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
                            self.try_local_delivery::<TRACE>(
                                shared,
                                slab,
                                hists,
                                now,
                                local as usize,
                            );
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
        slab: &mut FlitSlab,
        hists: &mut DeliveryHists,
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
            let flit = self.nodes[i].inject.pop().expect("peeked");
            self.head_changed(shared, i);
            let body = &mut slab[flit];
            body.itag_wait += self.nodes[i].starve;
            body.injected_at = Some(now);
            self.counters.injected += 1;
            if TRACE {
                let event = FlitEvent::Injected {
                    node: self.nodes[i].id.0,
                };
                let record = self.record(now.raw(), body.id, station, NO_LANE, event);
                self.trace.push(record);
            }
            self.finish_arrival::<TRACE>(slab, hists, now, t, flit, NO_LANE);
            self.nodes[i].starve = 0;
        }
    }

    /// The full cross-station evaluation for `(lane, station)`:
    /// arrival/ejection, injection arbitration (I-tag claim or
    /// round-robin), then starvation accounting and I-tag placement.
    /// It learns of an arrival from the lane's exit calendar and of what
    /// a head wants from the intent cache.
    #[allow(clippy::too_many_arguments)]
    fn process_station<const TRACE: bool>(
        &mut self,
        shared: &EngineShared,
        bridges: &mut Bridges,
        slab: &mut FlitSlab,
        hists: &mut DeliveryHists,
        now: Cycle,
        li: usize,
        s: u16,
    ) {
        let ring_id = self.ring.id;
        // ---- arrival / ejection ----
        if self.ring.lanes[li].arrives(s) {
            self.arrive::<TRACE>(shared, bridges, slab, hists, now, li, s);
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
                            let fid = slab[*self.nodes[o].inject.peek().expect("head checked")].id;
                            let event = FlitEvent::ITagClaimed { node: owner.0 };
                            let record = self.record(now.raw(), fid, s, li as u8, event);
                            self.trace.push(record);
                        }
                        self.inject_head::<TRACE>(shared, slab, now, o, li, s);
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
                        self.inject_head::<TRACE>(shared, slab, now, ni, li, s);
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
            self.counters.inject_losses += 1;
            if TRACE {
                let fid = slab[*self.nodes[ni].inject.peek().expect("head checked")].id;
                let event = FlitEvent::InjectLost {
                    node: self.nodes[ni].id.0,
                };
                let record = self.record(now.raw(), fid, s, li as u8, event);
                self.trace.push(record);
            }
            if self.nodes[ni].starve >= shared.cfg.itag_threshold
                && !self.nodes[ni].itag_pending
                && self.ring.lanes[li].itag_at(s).is_none()
            {
                self.ring.lanes[li].set_itag(s, self.nodes[ni].id);
                self.nodes[ni].itag_pending = true;
                self.nodes[ni].itags_here += 1;
                self.counters.itags_placed += 1;
                if TRACE {
                    let fid = slab[*self.nodes[ni].inject.peek().expect("head checked")].id;
                    let event = FlitEvent::ITagSet {
                        node: self.nodes[ni].id.0,
                    };
                    let record = self.record(now.raw(), fid, s, li as u8, event);
                    self.trace.push(record);
                }
            }
        }
    }

    /// Move local node `ni`'s head flit into the (empty) slot at its
    /// station, bound for the exit its cached intent names.
    fn inject_head<const TRACE: bool>(
        &mut self,
        shared: &EngineShared,
        slab: &mut FlitSlab,
        now: Cycle,
        ni: usize,
        li: usize,
        s: u16,
    ) {
        let exit = self.nodes[ni].want.exit;
        let flit = self.nodes[ni].inject.pop().expect("head checked");
        self.head_changed(shared, ni);
        self.progress_at = now.raw();
        let body = &mut slab[flit];
        body.itag_wait += self.nodes[ni].starve;
        if body.injected_at.is_none() {
            body.injected_at = Some(now);
            self.counters.injected += 1;
            if TRACE {
                let event = FlitEvent::Injected {
                    node: self.nodes[ni].id.0,
                };
                let record = self.record(now.raw(), body.id, s, li as u8, event);
                self.trace.push(record);
            }
        }
        self.ring.lanes[li].put_flit(s, flit, exit);
        self.nodes[ni].starve = 0;
    }

    /// Take the flit arriving at its exit station `s` off lane `li`
    /// and handle it: eject, SWAP, or deflect with an E-tag.
    #[allow(clippy::too_many_arguments)]
    fn arrive<const TRACE: bool>(
        &mut self,
        shared: &EngineShared,
        bridges: &mut Bridges,
        slab: &mut FlitSlab,
        hists: &mut DeliveryHists,
        now: Cycle,
        li: usize,
        s: u16,
    ) {
        let flit = self.ring.lanes[li].take_arrival(s, slab);
        let target = shared
            .route
            .exit(self.ring.id, flit.dst)
            .expect("validated topology routes every destination")
            .target;
        let t = shared.node_loc[target.index()].local as usize;
        let free = self.nodes[t].eject.free();
        let reserved_count = self.nodes[t].etag_list.len();
        let (fid, etag) = (slab[flit].id, slab[flit].etag);

        let may_eject = if etag {
            // A returning E-tag flit may use a freed buffer once its
            // reservation is covered by the free count.
            match self.nodes[t].etag_list.iter().position(|&id| id == fid) {
                Some(pos) => free > pos,
                None => free > reserved_count, // tagged for another node earlier
            }
        } else {
            free > reserved_count
        };

        if may_eject {
            if etag {
                self.consume_etag(t, fid);
                slab[flit].etag = false;
            }
            self.finish_arrival::<TRACE>(slab, hists, now, t, flit, li as u8);
            return;
        }

        // SWAP path (§4.4): bridge endpoint in DRM (or permanently, in
        // escape-buffer mode) with escape space.
        if let Some(si) = self.nodes[t].side {
            let si = si as usize;
            let out = &mut bridges.escapes[self.sides[si].out()];
            let active = self.sides[si].drm || out.cfg.escape_always;
            if active
                && out.reserved.len() < out.cfg.reserved_cap
                && !self.nodes[t].eject.is_empty()
            {
                // Push the Eject Queue head into a reserved Tx buffer…
                let escaped = self.nodes[t].eject.pop().expect("non-empty");
                out.reserved.push_back(escaped);
                self.intake.set(si);
                // …eject the traversing flit into the vacated space…
                if etag {
                    self.consume_etag(t, fid);
                    slab[flit].etag = false;
                }
                slab[flit].settle_recirc(now);
                self.nodes[t].eject.push(flit).expect("space just vacated");
                self.progress_at = now.raw();
                if TRACE {
                    let event = FlitEvent::Ejected { node: target.0 };
                    let record = self.record(now.raw(), fid, s, li as u8, event);
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
                    self.inject_head::<TRACE>(shared, slab, now, t, li, s);
                    self.counters.swaps += 1;
                    if TRACE {
                        let event = FlitEvent::SwapTriggered { node: target.0 };
                        let record = self.record(now.raw(), fid, s, li as u8, event);
                        self.trace.push(record);
                    }
                }
                return;
            }
        }

        // Deflect: place an E-tag reservation (once) and circle on.
        let body = &mut slab[flit];
        if !etag {
            body.etag = true;
            self.nodes[t].etag_list.push_back(fid);
            self.counters.etags_placed += 1;
            if TRACE {
                let event = FlitEvent::ETagReserved { target: target.0 };
                let record = self.record(now.raw(), fid, s, li as u8, event);
                self.trace.push(record);
            }
        }
        body.deflections += 1;
        if body.deflected_since.is_none() {
            // Open a re-circulation episode: every ring cycle from here
            // until the successful ejection is deflection penalty.
            body.deflected_since = Some(now);
        }
        if etag {
            // A deflection of an already-tagged flit defeats the
            // one-lap guarantee once more (§4.1.2).
            body.etag_laps += 1;
        }
        // Flow accounting charges these counters lazily (at delivery
        // and at sampling boundaries) — nothing to do here.
        self.counters.deflections += 1;
        self.nodes[t].deflected_here += 1;
        if TRACE {
            let event = FlitEvent::Deflected { target: target.0 };
            let record = self.record(now.raw(), fid, s, li as u8, event);
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
    /// a device's delivery in this ring's counters and the network's
    /// `hists`. `lane` is the ring lane the flit left (or [`NO_LANE`]
    /// for the zero-hop local path).
    fn finish_arrival<const TRACE: bool>(
        &mut self,
        slab: &mut FlitSlab,
        hists: &mut DeliveryHists,
        now: Cycle,
        t: usize,
        flit: FlitRef,
        lane: u8,
    ) {
        self.progress_at = now.raw();
        slab[flit].settle_recirc(now);
        let body = &slab[flit];
        let is_device = matches!(self.nodes[t].kind, NodeKind::Device);
        if is_device {
            self.counters.record_delivery(body);
            hists.record(body, now);
            if self.flow_on {
                // Charge the delivery plus whatever deflections and
                // E-tag laps the window sweeps have not yet seen.
                self.flow_buf.push((
                    body.src.0,
                    body.dst.0,
                    FlowDelta {
                        delivered: 1,
                        latency_sum: body.total_latency(now),
                        itag_waits: u64::from(body.itag_wait),
                        deflections: u64::from(body.deflections - body.charged_deflections),
                        etag_laps: u64::from(body.etag_laps - body.charged_etag_laps),
                    },
                ));
            }
        }
        if TRACE {
            let (cycle, station, node) = (now.raw(), self.nodes[t].station, self.nodes[t].id.0);
            let record = self.record(cycle, body.id, station, lane, FlitEvent::Ejected { node });
            self.trace.push(record);
            if is_device {
                let class = body.class.index() as u8;
                let event = FlitEvent::Delivered { node, class };
                let record = self.record(cycle, body.id, station, lane, event);
                self.trace.push(record);
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

    /// Push flits from bridge endpoint eject queues into the outbound
    /// escapes, draining reserved escape buffers first. Visits only the
    /// sides marked as having intake work; one left with nothing to
    /// push loses its mark.
    fn bridge_intake<const TRACE: bool>(
        &mut self,
        bridges: &mut Bridges,
        slab: &mut FlitSlab,
        now: Cycle,
    ) {
        let nraw = now.raw();
        for wi in 0..self.intake.words().len() {
            let w = self.intake.words()[wi];
            self.profile.side_visits += u64::from(w.count_ones());
            for si in word_ones(wi, w) {
                self.intake_side::<TRACE>(bridges, slab, nraw, si);
            }
        }
    }

    /// [`RingShard::bridge_intake`] for side `si`.
    fn intake_side<const TRACE: bool>(
        &mut self,
        bridges: &mut Bridges,
        slab: &mut FlitSlab,
        nraw: u64,
        si: usize,
    ) {
        let ep = self.sides[si].endpoint as usize;
        let e = self.sides[si].out();
        let cfg = &bridges.escapes[e].cfg;
        let (ready, width, cap) = (
            nraw + cfg.latency as u64,
            cfg.width_flits_per_cycle as usize,
            cfg.buffer_cap,
        );
        let mut moved = 0usize;
        while moved < width && bridges.escapes[e].fifo.len() < cap {
            // Priority: reserved escape buffers drain first.
            let reserved = bridges.escapes[e].reserved.pop_front();
            let Some(flit) = reserved.or_else(|| self.nodes[ep].eject.pop()) else {
                break;
            };
            slab[flit].ring_changes += 1;
            if TRACE {
                let bridge = self.sides[si].bridge.index() as u16;
                let event = FlitEvent::BridgeEnqueued { bridge };
                let station = self.nodes[ep].station;
                let record = self.record(nraw, slab[flit].id, station, NO_LANE, event);
                self.trace.push(record);
            }
            bridges.push(e, ready, flit);
            moved += 1;
        }
        if moved != 0 {
            bridges.escapes[e].last_push = (nraw, moved);
            self.progress_at = nraw;
        }
        if bridges.escapes[e].reserved.is_empty() && self.nodes[ep].eject.is_empty() {
            self.intake.clear(si);
        }
    }

    /// Enter/exit deadlock resolution mode on the sides under DRM
    /// watch. Reads a side's outbound reserved buffers and its
    /// endpoint's starvation state. A side neither in DRM nor starving
    /// at its threshold afterwards leaves the watch.
    fn drm_update(&mut self, bridges: &Bridges) {
        for wi in 0..self.drm_watch.words().len() {
            let w = self.drm_watch.words()[wi];
            self.profile.side_visits += u64::from(w.count_ones());
            for si in word_ones(wi, w) {
                let ep = self.sides[si].endpoint as usize;
                let starve = self.nodes[ep].starve;
                let inject_empty = self.nodes[ep].inject.is_empty();
                let side = &mut self.sides[si];
                let out = &bridges.escapes[side.out()];
                let starving = starve >= out.cfg.deadlock_threshold;
                if !side.drm {
                    if starving && !inject_empty {
                        side.drm = true;
                        side.drm_entries += 1;
                        self.counters.drm_entries += 1;
                    }
                } else if out.reserved.is_empty() && !starving {
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

    /// Debug builds: walk every side and check the side sets against
    /// the state they summarise — a side without an intake mark or off
    /// the DRM watch really has nothing for those phases to do. Called
    /// between the station sweep and intake, the point where a missed
    /// wake-up would first be skipped. (`crate::epoch` checks the
    /// escapes themselves.)
    fn debug_check_side_indices(&self, bridges: &Bridges) {
        if !cfg!(debug_assertions) {
            return;
        }
        let ring = self.ring.id;
        for (si, side) in self.sides.iter().enumerate() {
            let node = &self.nodes[side.endpoint as usize];
            let out = &bridges.escapes[side.out()];
            assert_eq!(
                node.side,
                Some(si as u32),
                "{ring} side {si}: endpoint index"
            );
            assert!(
                self.intake.test(si) || (node.eject.is_empty() && out.reserved.is_empty()),
                "{ring} side {si}: intake work without a mark"
            );
            let watch_at = if out.drm_capable() {
                out.cfg.deadlock_threshold
            } else {
                u32::MAX
            };
            assert_eq!(
                node.drm_watch_at, watch_at,
                "{ring} side {si}: watch threshold"
            );
            let watch = side.drm || node.starve >= out.cfg.deadlock_threshold;
            assert!(
                !self.drm_watch.test(si) || out.drm_capable(),
                "{ring} side {si}: DRM watch on a side DRM does not apply to"
            );
            assert!(
                self.drm_watch.test(si) || !(watch && out.drm_capable()),
                "{ring} side {si}: DRM transition due without a watch mark"
            );
        }
    }

    /// Flits physically inside this shard (queues and slots), for
    /// conservation checks.
    pub(crate) fn resident_flits(&self) -> u64 {
        let queued: usize = self
            .nodes
            .iter()
            .map(|n| n.inject.len() + n.eject.len())
            .sum();
        (queued + self.ring.occupancy()) as u64
    }
}
