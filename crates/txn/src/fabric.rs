//! The transaction fabric: packetization, injection pumping,
//! reassembly, windows, responses, atomics and broadcast relaying,
//! layered over a [`Network`].
//!
//! # Determinism
//!
//! [`TxnFabric`] owns all transaction state and mutates it only in
//! [`TxnFabric::tick`], *around* the network's own cycle: staged flits
//! are pumped into inject queues in ascending endpoint order before it,
//! and deliveries are drained in ascending endpoint order after it. The
//! engine below is deterministic: the same inputs give byte-identical
//! delivery streams. So every transaction-layer decision — reassembly
//! completions, window releases, broadcast forwards, atomic results —
//! replays identically run to run. Endpoints live in a `Vec`
//! sorted by node id (reached through a dense node-id → slot index),
//! id-keyed side tables are [`noc_sim::IdMap`]s used for keyed lookups
//! only — the few places that walk one (forensics, gauges) sort or
//! reduce commutatively — so no iteration order leaks into behavior.
//!
//! # Backpressure
//!
//! `submit*` returns `Ok(None)` (or `false` for messages) when the
//! endpoint's non-posted window or staging queue is full — retry next
//! cycle. Inside `tick`, a full inject queue pauses that endpoint's
//! pump until the network drains; staged flits are never dropped.

use crate::broadcast::BroadcastTree;
use crate::packet::{
    data_flits, split_packets, Accept, Assembly, PacketDesc, PacketKind, StagedFlit,
};
use crate::types::{
    AtomicKind, TxnCompletion, TxnConfig, TxnCounters, TxnError, TxnId, TxnKind, TxnOp,
};
use noc_core::bits::word_ones;
use noc_core::telemetry::{
    FlitSpan, NullSink, NullSpanSink, PacketSpan, PostmortemBundle, ResourceId, SpanRole, SpanSink,
    TraceSink, TxnRegistry, TxnSnapshot, TxnSpanTree, WaitEdge, WaitGraphConfig, WedgeLatch,
    WedgeReport,
};
use noc_core::{
    BitRing, EnqueueError, Flit, FlitClass, Network, NodeId, NodeKind, PacketToken, Topology,
};
use noc_sim::{Cycle, Histogram, IdMap, SlotIndex};
use std::collections::{BTreeMap, VecDeque};

/// Maximum children per node in broadcast fan-out trees.
const BROADCAST_FANOUT: usize = 4;

/// Per-endpoint cap on flits staged for injection; beyond it,
/// `submit` backpressures rather than buffering unboundedly.
const MAX_STAGED_FLITS: usize = 4096;

/// Per-endpoint transaction state.
#[derive(Debug, Default)]
struct Endpoint {
    id: NodeId,
    staged: VecDeque<StagedFlit>,
    msg_inbox: VecDeque<u64>,
    atomic_cell: u64,
    /// Reassembly credits held *toward* this endpoint: request packets
    /// admitted by the pump and not yet fully reassembled here
    /// ([`TxnConfig::reassembly_slots`]).
    credit_used: usize,
    /// Non-posted window slots held: exactly the live read,
    /// non-posted write and atomic transactions issued here.
    window_used: usize,
}

/// Stall-forensics state (see [`TxnFabric::enable_forensics`]).
#[derive(Debug)]
struct Forensics {
    latch: WedgeLatch,
    /// The postmortem bundle captured when the wedge latched, with the
    /// wedge report and tail exemplars attached.
    bundle: Option<PostmortemBundle>,
}

/// Broadcast progress of one transaction.
#[derive(Debug)]
struct BcastState {
    tree: BroadcastTree,
    remaining: usize,
}

/// Whether a packet's header needs a reassembly credit at its
/// destination before the pump releases it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Credit {
    /// Never gated: responses, broadcast forwards, or crediting off.
    Exempt,
    /// The header waits, staged, for a credit.
    Pending,
    /// A credit is held until the packet finishes reassembly.
    Held,
}

/// Fabric-side record of one live packet: what it is, its reassembly
/// credit, and which of its flits its destination has.
#[derive(Debug)]
struct Packet {
    desc: PacketDesc,
    credit: Credit,
    asm: Assembly,
}

/// Fabric-side record of one live transaction.
#[derive(Debug)]
struct TxnState {
    kind: TxnKind,
    src: NodeId,
    dst: NodeId,
    bytes: u32,
    issued_at: Cycle,
    /// Request-direction packets not yet reassembled at the destination.
    req_remaining: u32,
    /// Response-direction packets not yet reassembled at the source
    /// (0 for posted operations).
    resp_remaining: u32,
    atomic: Option<AtomicKind>,
    atomic_result: Option<u64>,
    bcast: Option<BcastState>,
}

impl TxnState {
    /// Whether the transaction holds a window slot at its source: the
    /// non-posted kinds do from `submit` until their last response.
    fn holds_slot(&self) -> bool {
        matches!(
            self.kind,
            TxnKind::Read | TxnKind::WriteNonPosted | TxnKind::Atomic
        )
    }
}

/// The transaction layer over a deflection-routed [`Network`].
///
/// # Example
///
/// ```
/// use noc_core::{Network, NetworkConfig, RingKind, TopologyBuilder};
/// use noc_txn::drive::{settle, Verdict};
/// use noc_txn::{TxnConfig, TxnFabric, TxnOp};
///
/// let mut b = TopologyBuilder::new();
/// let die = b.add_chiplet("die");
/// let r = b.add_ring(die, RingKind::Full, 8)?;
/// let a = b.add_node("a", r, 0)?;
/// let c = b.add_node("c", r, 4)?;
/// let net = Network::new(b.build()?, NetworkConfig::default());
///
/// let mut fab = TxnFabric::new(net, TxnConfig::default());
/// let txn = fab.submit(a, c, TxnOp::Write { bytes: 256, posted: false })?
///     .expect("empty window accepts");
/// let verdict = settle(&mut fab, 10_000, |_| Ok(()));
/// assert!(matches!(verdict, Ok(Verdict::Drained(_))));
/// let done = fab.drain_completions();
/// assert_eq!(done.len(), 1);
/// assert_eq!(done[0].txn, txn);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct TxnFabric<S: TraceSink = NullSink, P: SpanSink = NullSpanSink> {
    net: Network<S>,
    cfg: TxnConfig,
    /// Every device node's transaction state, ascending node id — the
    /// order the pump's round-robin and the delivery drain walk.
    endpoints: Vec<Endpoint>,
    /// [`NodeId::index`] → position in `endpoints` (bridge ends have
    /// none).
    slot_of: SlotIndex,
    /// Endpoints with staged flits: set where `stage_packet` stages,
    /// cleared where the pump empties the queue.
    staged: BitRing,
    /// Pump scratch: a per-call copy of `staged` from which an endpoint
    /// leaves once nothing more can be injected from it this call.
    pump_live: BitRing,
    /// Drain scratch: endpoints the network reported deliveries for.
    delivered: BitRing,
    /// Live packets by packet id. Keyed lookups only.
    packets: IdMap<u64, Packet>,
    /// Live transactions by id. Keyed lookups only.
    txns: IdMap<u64, TxnState>,
    next_packet: u64,
    next_txn: u64,
    completions: VecDeque<TxnCompletion>,
    counters: TxnCounters,
    latency: Histogram,
    registry: Option<TxnRegistry>,
    /// Flits pumped into the network and not yet delivered back.
    outstanding: u64,
    /// Fabric-wide admission cap on `outstanding`: half the fabric's
    /// ring slots, at least 8. Unbounded injection can wedge a
    /// multi-ring fabric — saturated rings and full bridge escape
    /// buffers form a cyclic wait SWAP cannot break — so the
    /// transaction layer keeps offered load below that regime;
    /// deflection routing has no escape channels to fall back on.
    outstanding_cap: u64,
    /// Destination for finished span trees. Every bookkeeping site
    /// below is guarded by `P::ENABLED`, so for the default
    /// [`NullSpanSink`] monomorphization deletes span tracking
    /// entirely.
    span_sink: P,
    /// In-progress packet spans: packet id → (owning txn, span).
    /// Keyed lookups only; empty when spans are disabled.
    pkt_spans: IdMap<u64, (u64, PacketSpan)>,
    /// In-progress transaction trees by txn id. Keyed lookups only;
    /// empty when spans are disabled.
    txn_spans: IdMap<u64, TxnSpanTree>,
    /// Wait-graph stall forensics, if enabled.
    forensics: Option<Forensics>,
}

/// Map the fabric's [`TxnKind`] onto
/// [`SPAN_OP_NAMES`](noc_core::telemetry::SPAN_OP_NAMES) indices.
fn span_op(kind: TxnKind) -> u8 {
    match kind {
        TxnKind::Read => 0,
        TxnKind::WritePosted => 1,
        TxnKind::WriteNonPosted => 2,
        TxnKind::Atomic => 3,
        TxnKind::Broadcast => 4,
    }
}

impl<S: TraceSink> TxnFabric<S> {
    /// Layer a transaction fabric over `net`. Every device node of the
    /// topology becomes a transaction endpoint. Span tracing is off
    /// (and compiled away); use [`TxnFabric::with_spans`] to record
    /// causal span trees.
    ///
    /// # Panics
    ///
    /// On the same invalid configurations as [`TxnFabric::with_spans`].
    pub fn new(net: Network<S>, cfg: TxnConfig) -> Self {
        Self::with_spans(net, cfg, NullSpanSink)
    }
}

impl<S: TraceSink, P: SpanSink> TxnFabric<S, P> {
    /// Layer a transaction fabric over `net`, recording one
    /// [`TxnSpanTree`] per finished transaction into `spans`.
    ///
    /// # Panics
    ///
    /// If `cfg.window` is 0, or `cfg.max_data_flits` is outside
    /// `1..=256`. A zero window would refuse every submission forever.
    pub fn with_spans(net: Network<S>, cfg: TxnConfig, spans: P) -> Self {
        assert!(
            cfg.max_data_flits >= 1 && cfg.max_data_flits <= 256,
            "max_data_flits must be in 1..=256 (token seq space)"
        );
        assert!(cfg.window >= 1, "window must be at least 1");
        let mut endpoints: Vec<Endpoint> = net
            .topology()
            .devices()
            .map(|d| Endpoint {
                id: d.id,
                ..Endpoint::default()
            })
            .collect();
        endpoints.sort_by_key(|e| e.id);
        debug_assert!(
            endpoints.windows(2).all(|w| w[0].id < w[1].id),
            "endpoints ascend by node id"
        );
        let slot_of = SlotIndex::new(endpoints.iter().map(|e| e.id.index()))
            .expect("device ids are distinct");
        let registry = (cfg.metrics_period > 0).then(|| TxnRegistry::new(cfg.metrics_period));
        // Half the fabric's ring slots. Saturation-induced bridge
        // deadlock needs at least one ring full plus full escape
        // buffers, so staying below half the slot count keeps the
        // fabric out of that regime while still letting throughput
        // scale with fabric size.
        let slots: u64 = net
            .topology()
            .rings()
            .iter()
            .map(|r| u64::from(r.stations) * r.kind.lanes() as u64)
            .sum();
        let outstanding_cap = (slots / 2).max(8);
        TxnFabric {
            net,
            cfg,
            staged: BitRing::new(endpoints.len()),
            pump_live: BitRing::new(endpoints.len()),
            delivered: BitRing::new(endpoints.len()),
            endpoints,
            slot_of,
            packets: IdMap::default(),
            txns: IdMap::default(),
            next_packet: 0,
            next_txn: 0,
            completions: VecDeque::new(),
            counters: TxnCounters::default(),
            latency: Histogram::new("txn-latency"),
            registry,
            outstanding: 0,
            outstanding_cap,
            span_sink: spans,
            pkt_spans: IdMap::default(),
            txn_spans: IdMap::default(),
            forensics: None,
        }
    }

    /// The span sink (e.g. to read a
    /// [`SpanCollector`](noc_core::telemetry::SpanCollector)'s trees).
    pub fn span_sink(&self) -> &P {
        &self.span_sink
    }

    /// The K slowest transactions' span trees, if the sink keeps them.
    pub fn tail_exemplars(&self) -> &[TxnSpanTree] {
        self.span_sink.exemplars()
    }

    /// Freeze a postmortem bundle from the network's flight recorder
    /// and attach the span sink's tail exemplars and any latched wedge
    /// report as causal context. `None` when the network's observatory
    /// is disabled.
    pub fn dump_postmortem(&self, reason: &str) -> Option<PostmortemBundle> {
        let mut bundle = self.net.dump_postmortem(reason)?;
        self.attach_txn_context(&mut bundle);
        Some(bundle)
    }

    /// Attach the sink's tail exemplars and the latched wedge report,
    /// if any, to a bundle the network froze without transaction-layer
    /// context.
    fn attach_txn_context(&self, bundle: &mut PostmortemBundle) {
        bundle.txn_exemplars = self.span_sink.exemplars().to_vec();
        if let Some(rep) = self.wedge_report() {
            bundle.wedges = vec![rep.clone()];
        }
    }

    /// Enable stall forensics: at every transaction-observatory
    /// boundary the [`WedgeLatch`] reads the network's progress stamp
    /// ([`Network::stalled_for`]). The first boundary of each stall
    /// episode ([`FREEZE_W`](noc_core::telemetry::FREEZE_W) cycles
    /// without progress) builds the typed resource wait-for graph (ring
    /// slots, bridge escape buffers, in-flight windows, reassembly
    /// buffers) once; a cycle in it fires the network's
    /// `deadlock-suspected` watchdog. The first such [`WedgeReport`]
    /// latches, and a postmortem bundle with the report and tail
    /// exemplars attached is captured ([`TxnFabric::wedge_bundles`]).
    /// `_cfg` has nothing left to set ([`WaitGraphConfig`]).
    ///
    /// # Panics
    ///
    /// Panics unless the transaction observatory is on
    /// ([`TxnConfig::metrics_period`] > 0) — forensics rides its
    /// boundaries, which is what makes the latch cycle deterministic.
    pub fn enable_forensics(&mut self, _cfg: WaitGraphConfig) {
        assert!(
            self.registry.is_some(),
            "stall forensics rides the transaction observatory; \
             set TxnConfig::metrics_period > 0"
        );
        self.forensics = Some(Forensics {
            latch: WedgeLatch::default(),
            bundle: None,
        });
    }

    /// Whether stall forensics has latched a wedge.
    pub fn wedge_latched(&self) -> bool {
        self.wedge_report().is_some()
    }

    /// The first wedge report, if stall forensics latched one.
    pub fn wedge_report(&self) -> Option<&WedgeReport> {
        self.forensics.as_ref().and_then(|f| f.latch.report())
    }

    /// The postmortem bundle captured when the wedge latched.
    pub fn wedge_bundles(&self) -> &[PostmortemBundle] {
        self.forensics.as_ref().map_or(&[], |f| f.bundle.as_slice())
    }

    /// The configuration.
    pub fn config(&self) -> &TxnConfig {
        &self.cfg
    }

    /// The underlying network (read-only).
    pub fn network(&self) -> &Network<S> {
        &self.net
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        self.net.topology()
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.net.now()
    }

    /// Transaction endpoints, in ascending id order.
    pub fn endpoints(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.endpoints.iter().map(|e| e.id)
    }

    /// Transactions currently in flight.
    pub fn in_flight_txns(&self) -> usize {
        self.txns.len()
    }

    /// Non-posted window slots occupied, summed over all endpoints —
    /// the observatory's window gauge.
    pub fn window_occupancy(&self) -> u64 {
        self.endpoints.iter().map(|e| e.window_used as u64).sum()
    }

    /// Flits currently in the network (pumped, not yet delivered).
    pub fn outstanding(&self) -> u64 {
        self.outstanding
    }

    /// The fabric-wide admission cap the pump enforces.
    pub fn outstanding_cap(&self) -> u64 {
        self.outstanding_cap
    }

    /// Window occupancy of one endpoint (`None` for non-endpoints).
    pub fn window_of(&self, node: NodeId) -> Option<usize> {
        self.slot(node).map(|s| self.endpoints[s].window_used)
    }

    /// The destination-side 64-bit atomic cell of `node`.
    pub fn atomic_cell(&self, node: NodeId) -> Option<u64> {
        self.slot(node).map(|s| self.endpoints[s].atomic_cell)
    }

    /// Lifetime counters.
    pub fn counters(&self) -> &TxnCounters {
        &self.counters
    }

    /// Whole-run per-transaction latency histogram.
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }

    /// The retained observatory snapshots, oldest first: the newest
    /// [`SERIES_WINDOW`](noc_core::telemetry::SERIES_WINDOW) committed
    /// (empty when `metrics_period == 0`).
    pub fn txn_snapshots(&self) -> &[TxnSnapshot] {
        self.registry.as_ref().map_or(&[], |r| r.snapshots())
    }

    /// The transaction observatory registry, if enabled: read the whole
    /// series through [`TxnRegistry::since`] as it is committed, and
    /// its length through [`TxnRegistry::committed`].
    pub fn registry(&self) -> Option<&TxnRegistry> {
        self.registry.as_ref()
    }

    /// Network fingerprint extended with the transaction layer's
    /// counter digest: two runs match iff both the fabric below *and*
    /// every transaction-layer decision agree.
    pub fn fingerprint(&self) -> Vec<u64> {
        let mut fp = self.net.fingerprint();
        fp.extend(self.counters.digest());
        fp.push(self.latency.sum());
        fp.push(self.latency.count());
        fp
    }

    fn check_endpoint(&self, n: NodeId) -> Result<(), TxnError> {
        let nodes = self.net.topology().nodes();
        match nodes.get(n.index()) {
            Some(spec) if spec.kind == NodeKind::Device => Ok(()),
            _ => Err(TxnError::BadEndpoint(n)),
        }
    }

    /// The position of `node` in `endpoints`; `None` for a bridge end
    /// or an id outside the topology.
    fn slot(&self, node: NodeId) -> Option<usize> {
        self.slot_of.get(node.index())
    }

    fn ep(&self, node: NodeId) -> &Endpoint {
        &self.endpoints[self.slot(node).expect("known endpoint")]
    }

    fn ep_mut(&mut self, node: NodeId) -> &mut Endpoint {
        let slot = self.slot(node).expect("known endpoint");
        &mut self.endpoints[slot]
    }

    fn staging_full(&self, src: NodeId) -> bool {
        self.ep(src).staged.len() >= MAX_STAGED_FLITS
    }

    /// Allocate a packet, record its descriptor, and stage its flits at
    /// `from`'s endpoint. `urgent` bypasses the staging bound (used for
    /// responses and broadcast forwards, which must never be refused —
    /// refusing them would deadlock the windows waiting on them).
    /// `parent` is the packet whose reassembly completion caused this
    /// staging (`None` at submit time); it becomes the span tree's
    /// causal edge.
    fn stage_packet(&mut self, from: NodeId, desc: PacketDesc, urgent: bool, parent: Option<u64>) {
        debug_assert!(urgent || !self.staging_full(from));
        let id = self.next_packet;
        self.next_packet += 1;
        if P::ENABLED {
            let role = if parent.is_none() {
                SpanRole::Request
            } else if matches!(desc.kind, PacketKind::Bcast) {
                SpanRole::Relay
            } else {
                SpanRole::Response
            };
            self.pkt_spans.insert(
                id,
                (
                    desc.txn,
                    PacketSpan {
                        packet: id,
                        parent,
                        role,
                        src: desc.src.0,
                        dst: desc.dst.0,
                        class: desc.class.index() as u8,
                        bytes: desc.bytes,
                        flits: 1 + desc.n_data,
                        staged_at: self.net.now().raw(),
                        // Sentinel until the first flit drains; always
                        // overwritten before the span leaves the fabric
                        // (reassembly completion is itself a drain).
                        first_flit_at: u64::MAX,
                        reassembled_at: 0,
                        hops: 0,
                        deflections: 0,
                        recirc_cycles: 0,
                        etag_laps: 0,
                        itag_wait: 0,
                        bridge_crossings: 0,
                        crit: FlitSpan::default(),
                    },
                ),
            );
        }
        // Request packets acquire a reassembly credit at their
        // destination before the pump releases their header. Urgent
        // packets (responses, broadcast forwards) are exempt: deferring
        // them would deadlock the windows waiting on them.
        let credit = if !urgent && self.cfg.reassembly_slots > 0 {
            Credit::Pending
        } else {
            Credit::Exempt
        };
        self.packets.insert(
            id,
            Packet {
                desc,
                credit,
                asm: Assembly::default(),
            },
        );
        let slot = self.slot(from).expect("known endpoint");
        self.endpoints[slot]
            .staged
            .extend(desc.flits(id, &self.cfg));
        self.staged.set(slot);
    }

    /// Span bookkeeping for one accepted (non-duplicate) flit. Callers
    /// guard with `P::ENABLED`; `completed` marks the flit that
    /// finished reassembly — it becomes the packet's critical flit and
    /// moves the span into its transaction's tree.
    fn span_flit(&mut self, packet: u64, flit: &Flit, completed: bool) {
        let now = self.net.now().raw();
        let Some((_, span)) = self.pkt_spans.get_mut(&packet) else {
            return;
        };
        if span.first_flit_at == u64::MAX {
            span.first_flit_at = now;
        }
        span.hops += u64::from(flit.hops);
        span.deflections += u64::from(flit.deflections);
        span.recirc_cycles += u64::from(flit.recirc_cycles);
        span.etag_laps += u64::from(flit.etag_laps);
        span.itag_wait += u64::from(flit.itag_wait);
        span.bridge_crossings += u64::from(flit.ring_changes);
        if !completed {
            return;
        }
        span.reassembled_at = now;
        span.crit = FlitSpan {
            enqueued_at: flit.created_at.raw(),
            injected_at: flit.injected_at.unwrap_or(flit.created_at).raw(),
            delivered_at: now,
            hops: flit.hops,
            deflections: flit.deflections,
            recirc_cycles: flit.recirc_cycles,
            etag_laps: flit.etag_laps,
            itag_wait: flit.itag_wait,
            bridge_crossings: flit.ring_changes,
        };
        let (txn, span) = self.pkt_spans.remove(&packet).expect("looked up above");
        // Message packets have no tree (they are not transactions);
        // their spans end here.
        if let Some(tree) = self.txn_spans.get_mut(&txn) {
            tree.final_packet = packet;
            tree.packets.push(span);
        }
    }

    /// Submit a point-to-point transaction from `src` to `dst`.
    ///
    /// Returns `Ok(None)` under backpressure (full non-posted window or
    /// full staging queue) — retry on a later cycle. The transaction id
    /// is returned once accepted; completions surface through
    /// [`TxnFabric::drain_completions`].
    ///
    /// # Errors
    ///
    /// [`TxnError`] for structurally invalid submissions (unknown or
    /// non-device endpoints, self-sends).
    pub fn submit(
        &mut self,
        src: NodeId,
        dst: NodeId,
        op: TxnOp,
    ) -> Result<Option<TxnId>, TxnError> {
        self.check_endpoint(src)?;
        self.check_endpoint(dst)?;
        if src == dst {
            return Err(TxnError::SelfSend(src));
        }
        if self.staging_full(src)
            || (op.non_posted() && self.ep(src).window_used >= self.cfg.window)
        {
            self.counters.backpressured += 1;
            return Ok(None);
        }

        let txn = self.next_txn;
        self.next_txn += 1;
        let now = self.net.now();
        let (kind, atomic) = match op {
            TxnOp::Read { .. } => (TxnKind::Read, None),
            TxnOp::Write { posted: true, .. } => (TxnKind::WritePosted, None),
            TxnOp::Write { posted: false, .. } => (TxnKind::WriteNonPosted, None),
            TxnOp::Atomic(a) => (TxnKind::Atomic, Some(a)),
        };

        // Carve the request direction into packets; count the
        // response direction's.
        let (req_packets, resp_packets) = match op {
            TxnOp::Read { bytes } => (
                split_packets(0, &self.cfg),
                split_packets(bytes, &self.cfg).len(),
            ),
            TxnOp::Write { bytes, posted } => {
                (split_packets(bytes, &self.cfg), usize::from(!posted))
            }
            TxnOp::Atomic(_) => (split_packets(0, &self.cfg), 1),
        };

        let payload = match op {
            TxnOp::Read { bytes } => bytes,
            TxnOp::Write { bytes, .. } => bytes,
            TxnOp::Atomic(_) => 0,
        };
        if P::ENABLED {
            self.txn_spans.insert(
                txn,
                TxnSpanTree {
                    txn,
                    op: span_op(kind),
                    src: src.0,
                    dst: dst.0,
                    bytes: payload,
                    issued_at: now.raw(),
                    req_done_at: None,
                    completed_at: 0,
                    window_occupancy: self.ep(src).window_used as u64,
                    final_packet: 0,
                    // One span per packet the transaction will stage.
                    packets: Vec::with_capacity(req_packets.len() + resp_packets),
                },
            );
        }
        self.txns.insert(
            txn,
            TxnState {
                kind,
                src,
                dst,
                bytes: payload,
                issued_at: now,
                req_remaining: req_packets.len() as u32,
                resp_remaining: resp_packets as u32,
                atomic,
                atomic_result: None,
                bcast: None,
            },
        );

        for bytes in req_packets {
            let (pk, class) = match op {
                TxnOp::Read { bytes } => (
                    PacketKind::ReadReq { resp_bytes: bytes },
                    FlitClass::Request,
                ),
                TxnOp::Write { .. } => (PacketKind::Data, FlitClass::Data),
                TxnOp::Atomic(_) => (PacketKind::AtomicReq, FlitClass::Request),
            };
            self.stage_packet(
                src,
                PacketDesc {
                    txn,
                    kind: pk,
                    src,
                    dst,
                    class,
                    bytes,
                    n_data: data_flits(bytes),
                },
                false,
                None,
            );
        }

        if op.non_posted() {
            self.ep_mut(src).window_used += 1;
        }
        self.counters.submitted += 1;
        Ok(Some(TxnId(txn)))
    }

    /// Submit a posted broadcast of `bytes` from `src` to every node in
    /// `targets` (duplicates and the root collapse). Delivery fans out
    /// along a [`BroadcastTree`]; the transaction completes when every
    /// target has reassembled its copy.
    ///
    /// Returns `Ok(None)` when `src`'s staging queue is full.
    ///
    /// # Errors
    ///
    /// [`TxnError`] for invalid endpoints, an empty target set, or a
    /// payload larger than one packet.
    pub fn submit_broadcast(
        &mut self,
        src: NodeId,
        targets: &[NodeId],
        bytes: u32,
    ) -> Result<Option<TxnId>, TxnError> {
        self.check_endpoint(src)?;
        for &t in targets {
            self.check_endpoint(t)?;
        }
        if bytes > self.cfg.packet_capacity() {
            return Err(TxnError::BroadcastTooLarge {
                bytes,
                max: self.cfg.packet_capacity(),
            });
        }
        let tree = BroadcastTree::build(self.net.topology(), src, targets, BROADCAST_FANOUT);
        if tree.targets() == 0 {
            return Err(TxnError::EmptyBroadcast);
        }
        if self.staging_full(src) {
            self.counters.backpressured += 1;
            return Ok(None);
        }

        let txn = self.next_txn;
        self.next_txn += 1;
        let now = self.net.now();
        let first_child = tree.children_of(src)[0];
        if P::ENABLED {
            self.txn_spans.insert(
                txn,
                TxnSpanTree {
                    txn,
                    op: span_op(TxnKind::Broadcast),
                    src: src.0,
                    dst: first_child.0,
                    bytes,
                    issued_at: now.raw(),
                    req_done_at: None,
                    completed_at: 0,
                    window_occupancy: self.ep(src).window_used as u64,
                    final_packet: 0,
                    // One span per tree edge: every target has one parent.
                    packets: Vec::with_capacity(tree.targets()),
                },
            );
        }
        // Stage the root's children straight from the tree, before it
        // moves into the transaction's entry (staging never reads `txns`).
        for &child in tree.children_of(src) {
            self.stage_packet(
                src,
                PacketDesc {
                    txn,
                    kind: PacketKind::Bcast,
                    src,
                    dst: child,
                    class: FlitClass::Data,
                    bytes,
                    n_data: data_flits(bytes),
                },
                false,
                None,
            );
        }
        self.txns.insert(
            txn,
            TxnState {
                kind: TxnKind::Broadcast,
                src,
                dst: first_child,
                bytes,
                issued_at: now,
                req_remaining: 0,
                resp_remaining: 0,
                atomic: None,
                atomic_result: None,
                bcast: Some(BcastState {
                    remaining: tree.targets(),
                    tree,
                }),
            },
        );
        self.counters.submitted += 1;
        Ok(Some(TxnId(txn)))
    }

    /// Submit a one-way message datagram carrying an opaque `token`,
    /// delivered to `dst`'s message inbox ([`TxnFabric::recv_message`]).
    /// This is the rail the CHI transport rides: each coherence message
    /// becomes a real header+data packet. Returns `false` under staging
    /// backpressure or for invalid endpoints (mirroring the network's
    /// `ChiTransport` impl, which folds all errors into `false`).
    pub fn submit_message(
        &mut self,
        src: NodeId,
        dst: NodeId,
        class: FlitClass,
        bytes: u32,
        token: u64,
    ) -> bool {
        if self.check_endpoint(src).is_err() || self.check_endpoint(dst).is_err() || src == dst {
            return false;
        }
        if self.staging_full(src) || bytes > self.cfg.packet_capacity() {
            self.counters.backpressured += 1;
            return false;
        }
        let txn = self.next_txn;
        self.next_txn += 1;
        self.txns.insert(
            txn,
            TxnState {
                kind: TxnKind::WritePosted, // placeholder; messages never complete via kind
                src,
                dst,
                bytes,
                issued_at: self.net.now(),
                req_remaining: 1,
                resp_remaining: 0,
                atomic: None,
                atomic_result: None,
                bcast: None,
            },
        );
        self.stage_packet(
            src,
            PacketDesc {
                txn,
                kind: PacketKind::Msg { token },
                src,
                dst,
                class,
                bytes,
                n_data: data_flits(bytes),
            },
            false,
            None,
        );
        self.counters.messages_submitted += 1;
        true
    }

    /// Pop the token of the oldest message delivered to `node`.
    pub fn recv_message(&mut self, node: NodeId) -> Option<u64> {
        let slot = self.slot(node)?;
        self.endpoints[slot].msg_inbox.pop_front()
    }

    /// The endpoints with a message waiting for
    /// [`TxnFabric::recv_message`], ascending id.
    pub fn nodes_with_messages(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.endpoints
            .iter()
            .filter(|e| !e.msg_inbox.is_empty())
            .map(|e| e.id)
    }

    /// Fault-injection hook: enqueue a raw flit with an arbitrary token
    /// directly onto the wrapped network, bypassing packetization. The
    /// transaction layer must survive whatever arrives — unknown packet
    /// ids count as stray flits, repeated sequences as duplicates.
    ///
    /// # Errors
    ///
    /// Propagates the network's [`EnqueueError`].
    pub fn inject_raw(
        &mut self,
        src: NodeId,
        dst: NodeId,
        class: FlitClass,
        bytes: u32,
        token: u64,
    ) -> Result<u64, EnqueueError> {
        let id = self.net.enqueue(src, dst, class, bytes, token)?;
        self.outstanding += 1;
        Ok(id)
    }

    /// Pump staged flits into inject queues: round-robin over the
    /// endpoints with staged flits in ascending id order, one flit per
    /// endpoint per pass, so the admission cap is shared fairly instead
    /// of being consumed by the lowest-numbered endpoints. A full
    /// inject queue pauses an endpoint (flits stay staged); reaching
    /// the cap pauses the pump until deliveries bring the outstanding
    /// count back down.
    fn pump_staged(&mut self) {
        debug_assert!(
            (0..self.endpoints.len())
                .all(|i| self.staged.test(i) != self.endpoints[i].staged.is_empty()),
            "staged-endpoint bits disagree with the staging queues"
        );
        self.pump_live.clone_from(&self.staged);
        let mut progress = true;
        while progress && self.outstanding < self.outstanding_cap {
            progress = false;
            for wi in 0..self.pump_live.words().len() {
                for i in word_ones(wi, self.pump_live.words()[wi]) {
                    if self.outstanding >= self.outstanding_cap {
                        return;
                    }
                    if self.pump_one(i) {
                        progress = true;
                    } else {
                        self.pump_live.clear(i);
                    }
                }
            }
        }
    }

    /// Try to inject the head staged flit of endpoint `i`. Returns
    /// whether it went in; `false` pauses the endpoint for the rest of
    /// this pump call.
    fn pump_one(&mut self, i: usize) -> bool {
        let flit = *self.endpoints[i]
            .staged
            .front()
            .expect("a live pump slot has staged flits");
        let tok = PacketToken::decode(flit.token);
        // Reserve a reassembly credit at the responder before releasing
        // a request packet's header. The credit returns when the packet
        // finishes reassembly there, bounding inbound demand per
        // endpoint — the admission-side fix for the saturation wedge
        // (full rings + full escape buffers in a cyclic wait SWAP cannot
        // break).
        if tok.is_header() && self.cfg.reassembly_slots > 0 {
            let pending = self
                .packets
                .get_mut(&tok.packet)
                .filter(|p| p.credit == Credit::Pending);
            if let Some(pkt) = pending {
                let d = self
                    .slot_of
                    .get(pkt.desc.dst.index())
                    .expect("known endpoint");
                if self.endpoints[d].credit_used >= self.cfg.reassembly_slots {
                    self.counters.reassembly_deferred += 1;
                    return false;
                }
                self.endpoints[d].credit_used += 1;
                pkt.credit = Credit::Held;
            }
        }
        let node = self.endpoints[i].id;
        match self
            .net
            .enqueue(node, flit.dst, flit.class, flit.bytes, flit.token)
        {
            Ok(_) => {
                self.endpoints[i].staged.pop_front();
                if self.endpoints[i].staged.is_empty() {
                    self.staged.clear(i);
                    self.pump_live.clear(i);
                }
                self.counters.flits_sent += 1;
                self.counters.bytes_sent += u64::from(flit.bytes);
                self.outstanding += 1;
                true
            }
            Err(EnqueueError::InjectQueueFull { .. }) => false,
            Err(e) => unreachable!("staged flit rejected: {e:?}"),
        }
    }

    /// Drain network deliveries into the transaction layer, in
    /// ascending endpoint order over the endpoints the network reports
    /// mail for — the order polling every endpoint would find them in
    /// (accepting a flit never delivers another).
    fn drain_deliveries(&mut self) {
        for node in self.net.nodes_with_deliveries() {
            let slot = self
                .slot_of
                .get(node.index())
                .expect("every device is an endpoint");
            self.delivered.set(slot);
        }
        for wi in 0..self.delivered.words().len() {
            for slot in word_ones(wi, self.delivered.words()[wi]) {
                self.delivered.clear(slot);
                let node = self.endpoints[slot].id;
                while let Some(flit) = self.net.pop_delivered(node) {
                    self.accept_flit(slot, &flit);
                }
            }
        }
    }

    /// Observatory sample, stamped at the current cycle.
    fn sample_observatory(&mut self) {
        let inflight = self.txns.len() as u64;
        let occupancy = self.window_occupancy();
        if let Some(reg) = &mut self.registry {
            reg.sample(self.net.now(), inflight, occupancy);
        }
        self.sample_forensics();
    }

    /// Build the wait graph: the engine contributes its ring/escape
    /// edges and where every in-network packet sits, the fabric
    /// contributes staged packets, credit-deferred headers and the
    /// holder-transaction ids. It walks every packet, so the wedge
    /// latch asks for it once per stall episode.
    fn build_wait_edges(&self) -> Vec<WaitEdge> {
        let topo_nodes = self.net.topology().nodes();
        // Holder id for edges: the owning transaction of a packet, or
        // the raw packet id for traffic the fabric never staged.
        let holder_of = |packet: u64| self.packets.get(&packet).map_or(packet, |p| p.desc.txn);

        let mut edges: Vec<WaitEdge> = Vec::new();
        let placed = self.net.push_wait_edges(holder_of, &mut edges);

        // Which ring each staged packet waits to enter (owner-held
        // ordered state).
        let mut staged_on: BTreeMap<u64, u16> = BTreeMap::new();
        for ep in &self.endpoints {
            let ring = topo_nodes[ep.id.index()].ring.0;
            for flit in &ep.staged {
                staged_on
                    .entry(PacketToken::decode(flit.token).packet)
                    .or_insert(ring);
            }
        }
        // Every resource flits of `packet` currently hold or wait at.
        let places = |packet: u64| -> Vec<ResourceId> {
            let start = placed.partition_point(|&(p, _)| p < packet);
            let mut v: Vec<ResourceId> = placed[start..]
                .iter()
                .take_while(|&&(p, _)| p == packet)
                .map(|&(_, place)| place)
                .collect();
            if let Some(&ring) = staged_on.get(&packet) {
                v.push(ResourceId::Ring { ring });
            }
            if let Some(pkt) = self.packets.get(&packet) {
                let dst = pkt.desc.dst;
                // Open in its destination's reassembly buffer, or
                // admission-deferred: the header waits for a
                // reassembly credit there.
                if pkt.asm.is_open()
                    || (pkt.credit == Credit::Pending
                        && self.ep(dst).credit_used >= self.cfg.reassembly_slots)
                {
                    v.push(ResourceId::Reassembly { node: dst.0 });
                }
            }
            v.sort_unstable();
            v.dedup();
            v
        };

        // Live packets per transaction (id map collected, then
        // sorted — determinism is restored before anything reads it).
        let mut pkts_of: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        {
            let mut all: Vec<(u64, u64)> =
                self.packets.iter().map(|(&p, k)| (k.desc.txn, p)).collect();
            all.sort_unstable();
            for (t, p) in all {
                pkts_of.entry(t).or_default().push(p);
            }
        }

        // What each endpoint holds, ascending: its window slots (the
        // live non-posted transactions it issued), then its
        // reassembly entries (the open packets bound to it).
        let mut held: Vec<(u32, bool, u64)> = self
            .txns
            .iter()
            .filter(|(_, st)| st.holds_slot())
            .map(|(&t, st)| (st.src.0, false, t))
            .chain(
                self.packets
                    .iter()
                    .filter(|(_, p)| p.asm.is_open())
                    .map(|(&id, p)| (p.desc.dst.0, true, id)),
            )
            .collect();
        held.sort_unstable();
        for (node, reassembly, id) in held {
            if reassembly {
                // A pinned reassembly entry waits wherever its packet's
                // missing flits are.
                let rea = ResourceId::Reassembly { node };
                let holder = holder_of(id);
                for to in places(id) {
                    if to != rea {
                        edges.push(WaitEdge {
                            from: rea,
                            to,
                            holder,
                        });
                    }
                }
            } else {
                // A held window slot waits on every resource its
                // transaction's live packets occupy.
                let win = ResourceId::Window { node };
                for &pkt in pkts_of.get(&id).map_or(&[][..], |v| v) {
                    for to in places(pkt) {
                        edges.push(WaitEdge {
                            from: win,
                            to,
                            holder: id,
                        });
                    }
                }
            }
        }
        edges
    }

    /// Forensics hook, run at every observatory boundary: let the
    /// wedge latch judge the progress stamp (building the graph at the
    /// first boundary of a stall episode), hand a wedge it finds to the
    /// network's watchdog, and when the first one latches capture a
    /// postmortem bundle with the report and tail exemplars attached.
    fn sample_forensics(&mut self) {
        // Take the forensics state out so the edge closure can borrow
        // `self` while the latch judges.
        let Some(mut f) = self.forensics.take() else {
            return;
        };
        let (cycle, stalled_for) = (self.net.now().raw(), self.net.stalled_for());
        let was_latched = f.latch.report().is_some();
        let found = f
            .latch
            .judge(cycle, stalled_for, || self.build_wait_edges());
        self.forensics = Some(f);
        let Some(report) = found else {
            return;
        };
        self.net.observe_wait(&report);
        if was_latched {
            return;
        }
        let Some(mut bundle) = self
            .net
            .dump_postmortem("watchdog: CRIT:deadlock-suspected")
        else {
            return;
        };
        self.attach_txn_context(&mut bundle);
        self.forensics.as_mut().expect("latched").bundle = Some(bundle);
    }

    /// Advance one cycle: pump staged flits, run the network's
    /// [`Network::tick`], drain and process deliveries, and at every
    /// multiple of the observatory period sample the transaction
    /// observatory.
    pub fn tick(&mut self) {
        self.pump_staged();
        self.net.tick();
        self.drain_deliveries();
        if let Some(reg) = &self.registry {
            if self.net.now().raw().is_multiple_of(reg.period()) {
                self.sample_observatory();
            }
        }
    }

    /// Whether nothing is in flight at either layer (no staged flits,
    /// nothing in the network, no live transactions): the drained
    /// test of [`settle`](crate::drive::settle). Undrained message
    /// inboxes and completions do not count — they are delivered.
    pub fn quiet(&self) -> bool {
        self.net.in_flight() == 0
            && self.txns.is_empty()
            && self.endpoints.iter().all(|e| e.staged.is_empty())
    }

    /// Take all completions accumulated so far, in completion order.
    pub fn drain_completions(&mut self) -> Vec<TxnCompletion> {
        self.completions.drain(..).collect()
    }

    /// Take the oldest completion not yet taken: the allocation-free
    /// form of [`TxnFabric::drain_completions`] the drive loop uses.
    pub(crate) fn pop_completion(&mut self) -> Option<TxnCompletion> {
        self.completions.pop_front()
    }

    fn accept_flit(&mut self, slot: usize, flit: &Flit) {
        let node = self.endpoints[slot].id;
        self.outstanding = self.outstanding.saturating_sub(1);
        let tok = PacketToken::decode(flit.token);
        // A live packet id may still be a counterfeit aimed at the
        // wrong endpoint: only the descriptor's receiver reassembles it.
        let Some(pkt) = self
            .packets
            .get_mut(&tok.packet)
            .filter(|p| p.desc.dst == node)
        else {
            self.counters.stray_flits += 1;
            return;
        };
        let (desc, held) = (pkt.desc, pkt.credit == Credit::Held);
        match pkt.asm.accept(tok, desc.n_data) {
            Accept::Duplicate => self.counters.duplicate_flits += 1,
            Accept::Partial => {
                if P::ENABLED {
                    self.span_flit(tok.packet, flit, false);
                }
            }
            Accept::Complete => {
                // A held reassembly credit returns to its destination
                // (this endpoint).
                self.endpoints[slot].credit_used -= usize::from(held);
                if P::ENABLED {
                    self.span_flit(tok.packet, flit, true);
                }
                self.packets.remove(&tok.packet);
                self.counters.packets_reassembled += 1;
                self.packet_complete(node, tok.packet, desc);
            }
        }
    }

    /// One whole packet (`packet_id`) has reassembled at `node`.
    fn packet_complete(&mut self, node: NodeId, packet_id: u64, desc: PacketDesc) {
        let txn_id = desc.txn;
        match desc.kind {
            PacketKind::Msg { token } => {
                self.ep_mut(node).msg_inbox.push_back(token);
                self.counters.messages += 1;
                self.txns.remove(&txn_id);
            }
            PacketKind::Bcast => {
                // Forward to tree children, then count the delivery. The
                // broadcast state is lent out of its entry while the
                // children are staged (staging never reads `txns`), so
                // the child list is walked in place, not copied.
                let st = self.txns.get_mut(&txn_id).expect("live broadcast");
                let mut bc = st.bcast.take().expect("broadcast state");
                for &child in bc.tree.children_of(node) {
                    self.stage_packet(
                        node,
                        PacketDesc {
                            txn: txn_id,
                            kind: PacketKind::Bcast,
                            src: node,
                            dst: child,
                            class: FlitClass::Data,
                            bytes: desc.bytes,
                            n_data: desc.n_data,
                        },
                        true,
                        Some(packet_id),
                    );
                }
                bc.remaining -= 1;
                if bc.remaining == 0 {
                    self.finish_txn(txn_id);
                } else {
                    self.txns.get_mut(&txn_id).expect("live broadcast").bcast = Some(bc);
                }
            }
            PacketKind::ReadReq { .. }
            | PacketKind::Data
            | PacketKind::Ack
            | PacketKind::AtomicReq
            | PacketKind::AtomicResp => {
                // Direction check: the same `Data` kind serves write
                // requests (arriving at txn.dst) and read responses
                // (arriving back at txn.src).
                let req_side = node == self.txns.get(&txn_id).expect("live txn").dst;
                if req_side {
                    self.request_side_complete(node, txn_id, packet_id, desc);
                } else {
                    self.response_side_complete(node, txn_id);
                }
            }
        }
    }

    /// One response-direction packet of `txn` is in at the source.
    fn response_side_complete(&mut self, node: NodeId, txn_id: u64) {
        let st = self.txns.get_mut(&txn_id).expect("live txn");
        debug_assert_eq!(node, st.src, "response landed at a third party");
        st.resp_remaining -= 1;
        if st.resp_remaining > 0 {
            return;
        }
        // The transaction held a window slot since `submit`; its last
        // response releases it (so `late_responses` never counts).
        let src = st.src;
        self.ep_mut(src).window_used -= 1;
        self.finish_txn(txn_id);
    }

    /// All request-direction packets of `txn` are in at the
    /// destination: generate the response (or complete, for posted).
    /// `packet_id` is the request packet whose reassembly completed —
    /// the causal parent of every response staged here.
    fn request_side_complete(
        &mut self,
        node: NodeId,
        txn_id: u64,
        packet_id: u64,
        desc: PacketDesc,
    ) {
        let (src, atomic, resp_remaining) = {
            let st = self.txns.get_mut(&txn_id).expect("live txn");
            st.req_remaining -= 1;
            if st.req_remaining > 0 {
                return;
            }
            (st.src, st.atomic, st.resp_remaining)
        };
        if P::ENABLED {
            if let Some(tree) = self.txn_spans.get_mut(&txn_id) {
                tree.req_done_at = Some(self.net.now().raw());
            }
        }
        match desc.kind {
            PacketKind::Data if resp_remaining == 0 => {
                // Posted write: complete at delivery.
                self.finish_txn(txn_id);
            }
            PacketKind::Data => {
                // Non-posted write: ack back to the source.
                self.stage_packet(
                    node,
                    PacketDesc {
                        txn: txn_id,
                        kind: PacketKind::Ack,
                        src: node,
                        dst: src,
                        class: FlitClass::Response,
                        bytes: 0,
                        n_data: 0,
                    },
                    true,
                    Some(packet_id),
                );
            }
            PacketKind::ReadReq { resp_bytes } => {
                // Stream the data back, possibly as several packets.
                for bytes in split_packets(resp_bytes, &self.cfg) {
                    self.stage_packet(
                        node,
                        PacketDesc {
                            txn: txn_id,
                            kind: PacketKind::Data,
                            src: node,
                            dst: src,
                            class: FlitClass::Data,
                            bytes,
                            n_data: data_flits(bytes),
                        },
                        true,
                        Some(packet_id),
                    );
                }
            }
            PacketKind::AtomicReq => {
                let op = atomic.expect("atomic txn carries its op");
                let result = op.apply(&mut self.ep_mut(node).atomic_cell);
                self.txns.get_mut(&txn_id).expect("live txn").atomic_result = Some(result);
                self.stage_packet(
                    node,
                    PacketDesc {
                        txn: txn_id,
                        kind: PacketKind::AtomicResp,
                        src: node,
                        dst: src,
                        class: FlitClass::Response,
                        bytes: 0,
                        n_data: 0,
                    },
                    true,
                    Some(packet_id),
                );
            }
            kind => unreachable!("request side saw {kind:?}"),
        }
    }

    /// Retire `txn`: record latency, counters, observatory, completion.
    fn finish_txn(&mut self, txn_id: u64) {
        let st = self.txns.remove(&txn_id).expect("live txn");
        let now = self.net.now();
        let done = TxnCompletion {
            txn: TxnId(txn_id),
            kind: st.kind,
            src: st.src,
            dst: st.dst,
            bytes: st.bytes,
            issued_at: st.issued_at,
            completed_at: now,
            atomic_result: st.atomic_result,
        };
        match st.kind {
            TxnKind::Read => self.counters.reads += 1,
            TxnKind::WritePosted => self.counters.writes_posted += 1,
            TxnKind::WriteNonPosted => self.counters.writes_non_posted += 1,
            TxnKind::Atomic => self.counters.atomics += 1,
            TxnKind::Broadcast => self.counters.broadcasts += 1,
        }
        let lat = done.latency();
        self.latency.record(lat);
        if let Some(reg) = &mut self.registry {
            reg.record(lat);
        }
        if P::ENABLED {
            if let Some(mut tree) = self.txn_spans.remove(&txn_id) {
                tree.completed_at = now.raw();
                // Canonical form: children in packet-id (staging) order
                // rather than completion order.
                tree.packets.sort_by_key(|p| p.packet);
                self.span_sink.record(tree);
            }
        }
        self.completions.push_back(done);
    }
}
