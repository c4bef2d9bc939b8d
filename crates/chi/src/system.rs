//! The coherent system: requesters (RN-F), home nodes (HN-F with LLC
//! data + directory) and memory controllers (SN-F) exchanging CHI-style
//! messages over a [`Network`].
//!
//! This is the protocol layer the paper's Server-CPU builds on (§3.2.1):
//! the NoC provides the AMBA5-CHI service to distributed L3/LLC slices;
//! each hit/miss event becomes an independent single-flit transaction.

use crate::cache::{Inserted, SetAssocCache};
use crate::directory::{DirState, Directory};
use crate::memory::{MemoryModel, MemoryParams};
use crate::message::{Message, MsgOp};
use crate::types::{LineAddr, MesiState, ReadKind, TxnId};
use noc_core::bits::word_ones;
use noc_core::{BitRing, FlitClass, Network, NodeId};
use noc_sim::{Cycle, IdMap, IdSet, SlotIndex};
use std::collections::VecDeque;

/// The transport a [`CoherentSystem`] runs over.
///
/// The canonical transport is the paper's bufferless multi-ring
/// [`Network`], but the trait lets the identical protocol run over the
/// baseline interconnects (buffered mesh, hub-and-spoke) so that
/// coherence-latency comparisons exercise real queueing rather than
/// analytic penalties.
pub trait ChiTransport {
    /// Offer a single-flit message. Returns `false` on backpressure
    /// (retry next cycle).
    fn offer(&mut self, src: NodeId, dst: NodeId, class: FlitClass, bytes: u32, token: u64)
        -> bool;

    /// Advance one cycle.
    fn tick(&mut self);

    /// Current cycle.
    fn now(&self) -> Cycle;

    /// Pop the token of the oldest message delivered to `node`.
    fn recv(&mut self, node: NodeId) -> Option<u64>;

    /// The nodes that may have a message waiting: at least every node
    /// `recv` would return `Some` for, in any order. A superset is
    /// allowed — the protocol layer drains each reported agent until
    /// `recv` returns `None` and ignores ids that are not agents.
    fn nodes_with_mail(&self) -> impl Iterator<Item = NodeId> + '_;
}

impl ChiTransport for Network {
    fn offer(
        &mut self,
        src: NodeId,
        dst: NodeId,
        class: FlitClass,
        bytes: u32,
        token: u64,
    ) -> bool {
        Network::enqueue(self, src, dst, class, bytes, token).is_ok()
    }

    fn tick(&mut self) {
        Network::tick(self);
    }

    fn now(&self) -> Cycle {
        Network::now(self)
    }

    fn recv(&mut self, node: NodeId) -> Option<u64> {
        self.pop_delivered(node).map(|f| f.token)
    }

    fn nodes_with_mail(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes_with_deliveries()
    }
}

/// LLC (home-node data array) geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcParams {
    /// Capacity per home-node slice in bytes.
    pub capacity_bytes: u64,
    /// Associativity.
    pub ways: usize,
}

impl Default for LlcParams {
    /// 4 MiB, 16-way per slice.
    fn default() -> Self {
        LlcParams {
            capacity_bytes: 4 << 20,
            ways: 16,
        }
    }
}

/// Agent placement and protocol parameters of a coherent system.
#[derive(Debug, Clone)]
pub struct SystemSpec {
    /// Request nodes (CPU clusters / AI cores).
    pub requesters: Vec<NodeId>,
    /// Home nodes (LLC slice + directory each).
    pub home_nodes: Vec<NodeId>,
    /// Memory controllers.
    pub memories: Vec<NodeId>,
    /// Parameters shared by all memory controllers.
    pub mem_params: MemoryParams,
    /// LLC slice geometry.
    pub llc: LlcParams,
    /// Cache line size in bytes.
    pub line_bytes: u32,
    /// Completion latency of a purely local cache hit.
    pub local_hit_latency: u64,
    /// Home-node pipeline latency (directory + LLC tag/data access)
    /// applied to every message a home node sends.
    pub hn_latency: u64,
    /// Requester snoop-response latency (local cache lookup).
    pub snoop_latency: u64,
}

/// What a completed transaction was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnKind {
    /// A read of the given kind.
    Read(ReadKind),
    /// A write (ReadUnique + dirty on completion).
    Write,
    /// A write-back of a dirty line.
    WriteBack,
}

/// A finished transaction, as observed by the requester.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Transaction id.
    pub txn: TxnId,
    /// The requester.
    pub rn: NodeId,
    /// The line.
    pub addr: LineAddr,
    /// What the transaction was.
    pub kind: TxnKind,
    /// Issue time.
    pub start: Cycle,
    /// Completion time.
    pub end: Cycle,
}

impl Completion {
    /// End-to-end latency in cycles.
    pub fn latency(&self) -> u64 {
        self.end.since(self.start)
    }
}

#[derive(Debug, Clone, Copy)]
enum Role {
    Rn(usize),
    Hn(usize),
    Sn(usize),
}

/// The fixed agent set, wired once in [`CoherentSystem::new`]: every
/// per-agent table is a `Vec` indexed by the agent's *slot* — its
/// position in `order` (requesters, then home nodes, then memories).
#[derive(Debug)]
struct Agents {
    /// Slot → node. Deliveries are drained and outboxes flushed in
    /// this order, which therefore fixes every flit id.
    order: Vec<NodeId>,
    /// [`NodeId::index`] → slot.
    slot_of: SlotIndex,
    role: Vec<Role>,
    outboxes: Vec<VecDeque<(NodeId, Message)>>,
    /// Slots whose outbox is non-empty, so the flush visits only agents
    /// with something to send.
    unsent: BitRing,
    /// Tick scratch: slots the transport reported mail for, drained in
    /// ascending order.
    mail: BitRing,
}

impl Agents {
    /// # Panics
    ///
    /// Panics if an agent id appears in more than one role.
    fn new(spec: &SystemSpec) -> Self {
        let order: Vec<NodeId> = [&spec.requesters, &spec.home_nodes, &spec.memories]
            .into_iter()
            .flatten()
            .copied()
            .collect();
        let role = (0..spec.requesters.len())
            .map(Role::Rn)
            .chain((0..spec.home_nodes.len()).map(Role::Hn))
            .chain((0..spec.memories.len()).map(Role::Sn))
            .collect();
        let slot_of = SlotIndex::new(order.iter().map(|n| n.index()))
            .unwrap_or_else(|i| panic!("{} has two roles", NodeId(i as u32)));
        Agents {
            role,
            slot_of,
            outboxes: vec![VecDeque::new(); order.len()],
            unsent: BitRing::new(order.len()),
            mail: BitRing::new(order.len()),
            order,
        }
    }

    /// The slot of `n`; `None` for any id — in range of the topology or
    /// not — that was not registered as an agent.
    fn slot(&self, n: NodeId) -> Option<usize> {
        self.slot_of.get(n.index())
    }

    fn role(&self, n: NodeId) -> Option<Role> {
        self.slot(n).map(|s| self.role[s])
    }

    fn send(&mut self, from: NodeId, to: NodeId, msg: Message) {
        let slot = self.slot(from).expect("sender is a registered agent");
        self.outboxes[slot].push_back((to, msg));
        self.unsent.set(slot);
    }
}

#[derive(Debug)]
struct RnTxn {
    addr: LineAddr,
    kind: TxnKind,
    start: Cycle,
}

#[derive(Debug)]
struct HnTxn {
    requester: NodeId,
    addr: LineAddr,
    op: MsgOp,
    grant: MesiState,
    pending_acks: u32,
    need_mem: bool,
    mem_done: bool,
    coherent: bool,
}

/// The coherent system simulator.
///
/// # Example
///
/// ```
/// use noc_chi::{CoherentSystem, LineAddr, LlcParams, MemoryParams,
///               ReadKind, SystemSpec};
/// use noc_core::{Network, NetworkConfig, RingKind, TopologyBuilder};
///
/// let mut b = TopologyBuilder::new();
/// let die = b.add_chiplet("die");
/// let r = b.add_ring(die, RingKind::Full, 8)?;
/// let cpu = b.add_node("cpu", r, 0)?;
/// let hn = b.add_node("hn", r, 3)?;
/// let ddr = b.add_node("ddr", r, 6)?;
/// let net = Network::new(b.build()?, NetworkConfig::default());
///
/// let mut sys = CoherentSystem::new(net, SystemSpec {
///     requesters: vec![cpu],
///     home_nodes: vec![hn],
///     memories: vec![ddr],
///     mem_params: MemoryParams::ddr4(),
///     llc: LlcParams::default(),
///     line_bytes: 64,
///     local_hit_latency: 10,
///     hn_latency: 12,
///     snoop_latency: 6,
/// });
/// let txn = sys.read(cpu, LineAddr(0x100), ReadKind::Shared);
/// let done = sys.run_until_complete(txn, 10_000).expect("completes");
/// assert!(done.latency() > 0);
/// # Ok::<(), noc_core::TopologyError>(())
/// ```
#[derive(Debug)]
pub struct CoherentSystem<T = Network> {
    net: T,
    spec: SystemSpec,
    agents: Agents,
    /// Per requester: line → state. Keyed lookups only.
    rn_lines: Vec<IdMap<LineAddr, MesiState>>,
    dirs: Vec<Directory>,
    llcs: Vec<SetAssocCache>,
    mems: Vec<MemoryModel<Message>>,
    /// In-flight messages by flit token. Keyed lookups only.
    msgs: IdMap<u64, Message>,
    next_msg: u64,
    next_txn: u64,
    /// Live transactions at the requester. Keyed lookups only.
    rn_txns: IdMap<TxnId, RnTxn>,
    /// Live transactions at the home node. Keyed lookups only.
    hn_txns: IdMap<TxnId, HnTxn>,
    /// Requests queued behind a busy line, by (hn index, line). Keyed
    /// lookups only.
    busy: IdMap<(usize, LineAddr), VecDeque<Message>>,
    /// Lines with a transaction in progress. Keyed lookups only.
    busy_set: IdSet<(usize, LineAddr)>,
    /// Grants in flight: txn → (hn index, line) held busy until
    /// CompAck. Keyed lookups only.
    awaiting_ack: IdMap<TxnId, (usize, LineAddr)>,
    local_done: VecDeque<(u64, Completion)>,
    /// Messages waiting out a pipeline delay before entering an outbox.
    delayed: Vec<(u64, NodeId, NodeId, Message)>,
    completions: Vec<Completion>,
}

impl<T: ChiTransport> CoherentSystem<T> {
    /// Wire a coherent system onto an existing network.
    ///
    /// # Panics
    ///
    /// Panics if the spec lists no requesters, home nodes or memories,
    /// or if an agent id appears in more than one role.
    pub fn new(net: T, spec: SystemSpec) -> Self {
        assert!(!spec.requesters.is_empty(), "need at least one requester");
        assert!(!spec.home_nodes.is_empty(), "need at least one home node");
        assert!(!spec.memories.is_empty(), "need at least one memory");
        let agents = Agents::new(&spec);
        let line = spec.line_bytes as u64;
        let llcs = spec
            .home_nodes
            .iter()
            .map(|_| SetAssocCache::with_capacity(spec.llc.capacity_bytes, line, spec.llc.ways))
            .collect();
        let mems = spec
            .memories
            .iter()
            .map(|_| MemoryModel::new(spec.mem_params))
            .collect();
        CoherentSystem {
            rn_lines: vec![IdMap::default(); spec.requesters.len()],
            dirs: spec.home_nodes.iter().map(|_| Directory::new()).collect(),
            llcs,
            mems,
            agents,
            net,
            spec,
            msgs: IdMap::default(),
            next_msg: 0,
            next_txn: 0,
            rn_txns: IdMap::default(),
            hn_txns: IdMap::default(),
            busy: IdMap::default(),
            busy_set: IdSet::default(),
            awaiting_ack: IdMap::default(),
            local_done: VecDeque::new(),
            delayed: Vec::new(),
            completions: Vec::new(),
        }
    }

    /// The underlying transport (read-only).
    pub fn network(&self) -> &T {
        &self.net
    }

    /// Mutable access to the transport (for probes and stats).
    pub fn network_mut(&mut self) -> &mut T {
        &mut self.net
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycle {
        self.net.now()
    }

    /// Transactions still in flight.
    pub fn outstanding(&self) -> usize {
        self.rn_txns.len()
    }

    /// The MESI state `rn` currently holds for `addr`.
    pub fn rn_state(&self, rn: NodeId, addr: LineAddr) -> MesiState {
        match self.agents.role(rn) {
            Some(Role::Rn(i)) => self.rn_lines[i]
                .get(&addr)
                .copied()
                .unwrap_or(MesiState::Invalid),
            _ => MesiState::Invalid,
        }
    }

    /// The home node servicing `addr`.
    pub fn home_of(&self, addr: LineAddr) -> NodeId {
        self.spec.home_nodes[addr.interleave(self.spec.home_nodes.len())]
    }

    /// The memory controller servicing `addr`.
    pub fn memory_of(&self, addr: LineAddr) -> NodeId {
        self.spec.memories[addr.interleave(self.spec.memories.len())]
    }

    fn alloc_txn(&mut self) -> TxnId {
        let t = TxnId(self.next_txn);
        self.next_txn += 1;
        t
    }

    /// Send after a pipeline delay (home-node array access, snoop
    /// lookup). Zero-delay sends go straight to the outbox.
    fn send_after(&mut self, from: NodeId, to: NodeId, msg: Message, delay: u64) {
        if delay == 0 {
            self.agents.send(from, to, msg);
        } else {
            let ready = self.net.now().raw() + delay;
            self.delayed.push((ready, from, to, msg));
        }
    }

    /// Issue a coherent (or NoSnp) read from `rn`.
    ///
    /// # Panics
    ///
    /// Panics if `rn` is not a registered requester.
    pub fn read(&mut self, rn: NodeId, addr: LineAddr, kind: ReadKind) -> TxnId {
        self.issue(rn, addr, TxnKind::Read(kind))
    }

    /// Issue a write (ReadUnique; line becomes Modified on completion).
    pub fn write(&mut self, rn: NodeId, addr: LineAddr) -> TxnId {
        self.issue(rn, addr, TxnKind::Write)
    }

    fn issue(&mut self, rn: NodeId, addr: LineAddr, kind: TxnKind) -> TxnId {
        let Some(Role::Rn(idx)) = self.agents.role(rn) else {
            panic!("{rn} is not a requester");
        };
        let txn = self.alloc_txn();
        let start = self.now();
        self.rn_txns.insert(txn, RnTxn { addr, kind, start });
        // Local hit path.
        let st = self.rn_lines[idx]
            .get(&addr)
            .copied()
            .unwrap_or(MesiState::Invalid);
        let local = match kind {
            TxnKind::Read(ReadKind::Shared) => st.readable(),
            TxnKind::Read(ReadKind::Unique) | TxnKind::Write => st.writable(),
            TxnKind::Read(ReadKind::NoSnp) => false,
            TxnKind::WriteBack => unreachable!("issued via write_back"),
        };
        if local {
            if matches!(kind, TxnKind::Write) {
                self.rn_lines[idx].insert(addr, MesiState::Modified);
            }
            let ready = start.raw() + self.spec.local_hit_latency;
            let c = Completion {
                txn,
                rn,
                addr,
                kind,
                start,
                end: Cycle(ready),
            };
            self.local_done.push_back((ready, c));
            return txn;
        }
        let op = match kind {
            TxnKind::Read(ReadKind::Shared) => MsgOp::ReadShared,
            TxnKind::Read(ReadKind::Unique) | TxnKind::Write => MsgOp::ReadUnique,
            TxnKind::Read(ReadKind::NoSnp) => MsgOp::ReadNoSnp,
            TxnKind::WriteBack => unreachable!(),
        };
        let home = self.home_of(addr);
        self.agents.send(
            rn,
            home,
            Message {
                txn,
                op,
                addr,
                from: rn,
            },
        );
        txn
    }

    /// Write back a dirty/owned line. Returns `None` when `rn` does not
    /// hold the line in a writable state.
    pub fn write_back(&mut self, rn: NodeId, addr: LineAddr) -> Option<TxnId> {
        let Some(Role::Rn(idx)) = self.agents.role(rn) else {
            return None;
        };
        let st = self.rn_lines[idx]
            .get(&addr)
            .copied()
            .unwrap_or(MesiState::Invalid);
        if !st.writable() {
            return None;
        }
        self.rn_lines[idx].insert(addr, MesiState::Invalid);
        let txn = self.alloc_txn();
        let start = self.now();
        self.rn_txns.insert(
            txn,
            RnTxn {
                addr,
                kind: TxnKind::WriteBack,
                start,
            },
        );
        let home = self.home_of(addr);
        self.agents.send(
            rn,
            home,
            Message {
                txn,
                op: MsgOp::WriteBackFull,
                addr,
                from: rn,
            },
        );
        Some(txn)
    }

    /// Take all completions observed since the last call.
    pub fn take_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Advance one cycle: network, agents, memory, message flush.
    pub fn tick(&mut self) {
        self.net.tick();
        let now = self.net.now();
        // Local (cache-hit) completions.
        while self
            .local_done
            .front()
            .is_some_and(|&(ready, _)| ready <= now.raw())
        {
            let (_, c) = self.local_done.pop_front().expect("checked");
            self.rn_txns.remove(&c.txn);
            self.completions.push(c);
        }
        // Deliveries, in ascending slot order over the agents the
        // transport reports: the order polling every agent would find
        // them in (handling a message never delivers another).
        for node in self.net.nodes_with_mail() {
            if let Some(slot) = self.agents.slot(node) {
                self.agents.mail.set(slot);
            }
        }
        for wi in 0..self.agents.mail.words().len() {
            for slot in word_ones(wi, self.agents.mail.words()[wi]) {
                self.agents.mail.clear(slot);
                let node = self.agents.order[slot];
                while let Some(token) = self.net.recv(node) {
                    let msg = self
                        .msgs
                        .remove(&token)
                        .expect("every protocol flit has a side-table entry");
                    self.handle(node, msg);
                }
            }
        }
        // Memory service.
        for i in 0..self.mems.len() {
            let sn = self.spec.memories[i];
            while let Some(req) = self.mems[i].pop_ready(now.raw()) {
                match req.op {
                    MsgOp::MemRead => {
                        let reply = Message {
                            txn: req.txn,
                            op: MsgOp::MemData,
                            addr: req.addr,
                            from: sn,
                        };
                        self.agents.send(sn, req.from, reply);
                    }
                    MsgOp::WriteNoSnp => { /* fire-and-forget eviction */ }
                    other => unreachable!("memory received {other:?}"),
                }
            }
        }
        // Release matured delayed messages into their outboxes.
        let now_raw = now.raw();
        let mut i = 0;
        while i < self.delayed.len() {
            if self.delayed[i].0 <= now_raw {
                let (_, from, to, msg) = self.delayed.swap_remove(i);
                self.agents.send(from, to, msg);
            } else {
                i += 1;
            }
        }
        // Flush outboxes into the NoC, ascending slot order over the
        // agents that have something to send: the order of `offer`
        // calls is the order flit ids are handed out in.
        for wi in 0..self.agents.unsent.words().len() {
            for slot in word_ones(wi, self.agents.unsent.words()[wi]) {
                let node = self.agents.order[slot];
                while let Some(&(dst, msg)) = self.agents.outboxes[slot].front() {
                    let token = self.next_msg;
                    if !self.net.offer(
                        node,
                        dst,
                        msg.op.class(),
                        msg.op.payload_bytes(self.spec.line_bytes),
                        token,
                    ) {
                        break;
                    }
                    self.next_msg += 1;
                    self.msgs.insert(token, msg);
                    self.agents.outboxes[slot].pop_front();
                }
                if self.agents.outboxes[slot].is_empty() {
                    self.agents.unsent.clear(slot);
                }
            }
        }
    }

    /// Run until `txn` completes or `budget` cycles elapse.
    pub fn run_until_complete(&mut self, txn: TxnId, budget: u64) -> Option<Completion> {
        let mut found = None;
        for _ in 0..budget {
            self.tick();
            let done = self.take_completions();
            for c in done {
                if c.txn == txn {
                    found = Some(c);
                } else {
                    self.completions.push(c);
                }
            }
            if found.is_some() {
                break;
            }
        }
        found
    }

    fn handle(&mut self, at: NodeId, msg: Message) {
        match self.agents.role(at).expect("delivery to registered agent") {
            Role::Rn(idx) => self.handle_rn(at, idx, msg),
            Role::Hn(idx) => self.handle_hn(at, idx, msg),
            Role::Sn(idx) => {
                let now = self.net.now().raw();
                self.mems[idx].push(now, msg);
            }
        }
    }

    fn handle_rn(&mut self, rn: NodeId, idx: usize, msg: Message) {
        match msg.op {
            MsgOp::SnpShared => {
                let was = self.rn_lines[idx]
                    .get(&msg.addr)
                    .copied()
                    .unwrap_or(MesiState::Invalid);
                self.rn_lines[idx].insert(msg.addr, MesiState::Shared);
                let reply = Message {
                    txn: msg.txn,
                    op: MsgOp::SnpRespData {
                        was_dirty: was == MesiState::Modified,
                    },
                    addr: msg.addr,
                    from: rn,
                };
                let d = self.spec.snoop_latency;
                self.send_after(rn, msg.from, reply, d);
            }
            MsgOp::SnpUnique => {
                let was = self.rn_lines[idx]
                    .get(&msg.addr)
                    .copied()
                    .unwrap_or(MesiState::Invalid);
                self.rn_lines[idx].insert(msg.addr, MesiState::Invalid);
                let reply = Message {
                    txn: msg.txn,
                    op: MsgOp::SnpRespData {
                        was_dirty: was == MesiState::Modified,
                    },
                    addr: msg.addr,
                    from: rn,
                };
                let d = self.spec.snoop_latency;
                self.send_after(rn, msg.from, reply, d);
            }
            MsgOp::CompData { state } => {
                let ack = Message {
                    txn: msg.txn,
                    op: MsgOp::CompAck,
                    addr: msg.addr,
                    from: rn,
                };
                self.agents.send(rn, msg.from, ack);
                if let Some(t) = self.rn_txns.remove(&msg.txn) {
                    let final_state = if matches!(t.kind, TxnKind::Write) {
                        MesiState::Modified
                    } else {
                        state
                    };
                    if final_state != MesiState::Invalid {
                        self.rn_lines[idx].insert(msg.addr, final_state);
                    }
                    self.completions.push(Completion {
                        txn: msg.txn,
                        rn,
                        addr: t.addr,
                        kind: t.kind,
                        start: t.start,
                        end: self.net.now(),
                    });
                }
            }
            MsgOp::Comp => {
                if let Some(t) = self.rn_txns.remove(&msg.txn) {
                    self.completions.push(Completion {
                        txn: msg.txn,
                        rn,
                        addr: t.addr,
                        kind: t.kind,
                        start: t.start,
                        end: self.net.now(),
                    });
                }
            }
            other => unreachable!("requester received {other:?}"),
        }
    }

    fn llc_install(&mut self, idx: usize, hn: NodeId, addr: LineAddr, dirty: bool) {
        if let Inserted::Evicted {
            victim,
            dirty: victim_dirty,
        } = self.llcs[idx].insert(addr, dirty)
        {
            if victim_dirty {
                // Evicted dirty line flows to memory (fire-and-forget).
                let txn = self.alloc_txn();
                let mem = self.memory_of(victim);
                self.agents.send(
                    hn,
                    mem,
                    Message {
                        txn,
                        op: MsgOp::WriteNoSnp,
                        addr: victim,
                        from: hn,
                    },
                );
            }
        }
    }

    fn handle_hn(&mut self, hn: NodeId, idx: usize, msg: Message) {
        match msg.op {
            MsgOp::ReadShared | MsgOp::ReadUnique => {
                if self.busy_set.contains(&(idx, msg.addr)) {
                    self.busy.entry((idx, msg.addr)).or_default().push_back(msg);
                } else {
                    self.start_hn_txn(hn, idx, msg);
                }
            }
            MsgOp::ReadNoSnp => {
                // Non-coherent: straight through to memory.
                self.hn_txns.insert(
                    msg.txn,
                    HnTxn {
                        requester: msg.from,
                        addr: msg.addr,
                        op: msg.op,
                        grant: MesiState::Invalid,
                        pending_acks: 0,
                        need_mem: true,
                        mem_done: false,
                        coherent: false,
                    },
                );
                let mem = self.memory_of(msg.addr);
                self.agents.send(
                    hn,
                    mem,
                    Message {
                        txn: msg.txn,
                        op: MsgOp::MemRead,
                        addr: msg.addr,
                        from: hn,
                    },
                );
            }
            MsgOp::WriteBackFull => {
                self.llc_install(idx, hn, msg.addr, true);
                self.dirs[idx].remove(msg.addr, msg.from);
                let reply = Message {
                    txn: msg.txn,
                    op: MsgOp::Comp,
                    addr: msg.addr,
                    from: hn,
                };
                let d = self.spec.hn_latency;
                self.send_after(hn, msg.from, reply, d);
            }
            MsgOp::SnpRespData { was_dirty } => {
                self.llc_install(idx, hn, msg.addr, was_dirty);
                let done = {
                    let t = self
                        .hn_txns
                        .get_mut(&msg.txn)
                        .expect("snoop response for live txn");
                    t.pending_acks -= 1;
                    t.pending_acks == 0 && (!t.need_mem || t.mem_done)
                };
                if done {
                    self.finish_hn_txn(hn, idx, msg.txn);
                }
            }
            MsgOp::MemData => {
                let (done, coherent) = {
                    let t = self
                        .hn_txns
                        .get_mut(&msg.txn)
                        .expect("memory data for live txn");
                    t.mem_done = true;
                    (t.pending_acks == 0, t.coherent)
                };
                if coherent {
                    self.llc_install(idx, hn, msg.addr, false);
                }
                if done {
                    self.finish_hn_txn(hn, idx, msg.txn);
                }
            }
            MsgOp::CompAck => {
                if let Some((i, addr)) = self.awaiting_ack.remove(&msg.txn) {
                    self.busy_set.remove(&(i, addr));
                    if let Some(queue) = self.busy.get_mut(&(i, addr)) {
                        if let Some(next) = queue.pop_front() {
                            if queue.is_empty() {
                                self.busy.remove(&(i, addr));
                            }
                            self.start_hn_txn(hn, i, next);
                        }
                    }
                }
            }
            MsgOp::MemAck => {}
            other => unreachable!("home node received {other:?}"),
        }
    }

    fn start_hn_txn(&mut self, hn: NodeId, idx: usize, msg: Message) {
        let addr = msg.addr;
        let req = msg.from;
        let mut t = HnTxn {
            requester: req,
            addr,
            op: msg.op,
            grant: MesiState::Shared,
            pending_acks: 0,
            need_mem: false,
            mem_done: true,
            coherent: true,
        };
        let snoop = |op| Message {
            txn: msg.txn,
            op,
            addr,
            from: hn,
        };
        // The directory entry is only read here (it changes when the
        // transaction finishes), so it is borrowed, not cloned; the
        // arms touch `agents` and `llcs`, which are disjoint fields.
        let mut lookup_llc = false;
        match (msg.op, self.dirs[idx].state(addr)) {
            (MsgOp::ReadShared, &DirState::Owned(o)) if o != req => {
                self.agents.send(hn, o, snoop(MsgOp::SnpShared));
                t.pending_acks = 1;
                t.grant = MesiState::Shared;
            }
            (MsgOp::ReadShared, dir_state) => {
                // Owned-by-requester (stale), Shared, or Invalid: data
                // comes from LLC or memory.
                t.grant = if matches!(dir_state, DirState::Invalid) {
                    MesiState::Exclusive
                } else {
                    MesiState::Shared
                };
                lookup_llc = true;
            }
            (MsgOp::ReadUnique, &DirState::Owned(o)) if o != req => {
                self.agents.send(hn, o, snoop(MsgOp::SnpUnique));
                t.pending_acks = 1;
                t.grant = MesiState::Exclusive;
            }
            (MsgOp::ReadUnique, DirState::Shared(sharers)) => {
                for &s in sharers.iter().filter(|&&s| s != req) {
                    self.agents.send(hn, s, snoop(MsgOp::SnpUnique));
                    t.pending_acks += 1;
                }
                t.grant = MesiState::Exclusive;
                lookup_llc = true;
            }
            (MsgOp::ReadUnique, _) => {
                t.grant = MesiState::Exclusive;
                lookup_llc = true;
            }
            (other, _) => unreachable!("start_hn_txn got {other:?}"),
        }
        if lookup_llc && !self.llcs[idx].access(addr) {
            t.need_mem = true;
            t.mem_done = false;
        }
        if t.need_mem {
            let mem = self.memory_of(addr);
            self.agents.send(
                hn,
                mem,
                Message {
                    txn: msg.txn,
                    op: MsgOp::MemRead,
                    addr,
                    from: hn,
                },
            );
        }
        if t.pending_acks == 0 && !t.need_mem {
            // LLC hit with nothing to snoop: respond immediately.
            self.hn_txns.insert(msg.txn, t);
            self.busy_set.insert((idx, addr));
            self.finish_hn_txn(hn, idx, msg.txn);
        } else {
            self.hn_txns.insert(msg.txn, t);
            self.busy_set.insert((idx, addr));
        }
    }

    fn finish_hn_txn(&mut self, hn: NodeId, idx: usize, txn: TxnId) {
        let t = self.hn_txns.remove(&txn).expect("finishing live txn");
        let addr = t.addr;
        if t.coherent {
            match t.op {
                MsgOp::ReadShared => {
                    if t.grant == MesiState::Exclusive {
                        self.dirs[idx].set_owner(addr, t.requester);
                    } else {
                        self.dirs[idx].add_sharer(addr, t.requester);
                    }
                }
                MsgOp::ReadUnique => {
                    self.dirs[idx].set_owner(addr, t.requester);
                }
                _ => {}
            }
            // The line stays busy until the requester's CompAck: a later
            // request's snoop must not overtake this grant.
            self.awaiting_ack.insert(txn, (idx, addr));
        }
        let reply = Message {
            txn,
            op: MsgOp::CompData { state: t.grant },
            addr,
            from: hn,
        };
        let d = self.spec.hn_latency;
        self.send_after(hn, t.requester, reply, d);
    }
}
