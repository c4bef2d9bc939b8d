//! Epoch-batched parallel execution: long-lived shard workers that run
//! K cycles per pool handoff, exchanging bridge mail over lock-free
//! SPSC rings instead of rendezvousing with the engine every phase.
//!
//! # Why epochs
//!
//! The per-tick fan-out pays two mpsc channel hops per worker per
//! *phase*; at small ring sizes the hops dwarf the simulated work and
//! Parallel loses to Sequential outright. An epoch moves the
//! scatter/gather to once per **K cycles**: the engine partitions the
//! shards into one [`EpochTask`] per pool slot (contiguous ring ranges,
//! so chain-like topologies keep most bridges task-internal), moves the
//! shards in, and every task runs the full K-cycle loop itself.
//!
//! # The cycle protocol
//!
//! Within an epoch each task executes, per cycle, exactly the phases of
//! the sequential engine — deliver, backlog snapshot, per-ring cycle,
//! mailbox exchange. The two barrier phases touch the *peer* side of
//! each bridge; when the peer lives in another task, the data travels
//! over a dedicated pair of [`noc_sim::spsc`] rings (one per direction
//! per bridge) as [`BridgeMail`]:
//!
//! 1. after delivery, each side sends its own post-delivery inbox depth
//!    and receives the peer's ([`BridgeSide::peer_backlog`]);
//! 2. after the per-ring cycle, each side sends the flit batch its
//!    intake staged this cycle and appends the peer's batch onto `rx`.
//!
//! Both ends follow this cycle-indexed protocol in lockstep, so every
//! message's content is a pure function of the sending shard's state at
//! a fixed cycle — scheduling can change *when* a message is consumed,
//! never what it says. Per cycle and per direction a link carries one
//! `Depth` then one `Batch`; a producer can run at most one cycle ahead
//! before blocking on its peer's depth, so at most two messages are
//! ever in flight per direction ([`MAIL_CAP`] has slack on top).
//!
//! Bit-identity with the K=1 sequential engine follows because the
//! protocol *is* the sequential barrier, relocated: same values, same
//! per-bridge pairing, same cycle. The epoch bound (K ≤ the minimum
//! bridge traversal latency, [`crate::Network::max_epoch`]) guarantees
//! no flit can both enter and mature in a bridge pipeline within one
//! epoch, which is what lets the engine defer every caller-visible
//! drain (traces, metrics, utilization) to the epoch boundary without
//! an observable reordering.
//!
//! [`BridgeSide::peer_backlog`]: crate::bridge::BridgeSide::peer_backlog

use crate::bridge;
use crate::flit::Flit;
use crate::network::TickMode;
use crate::shard::{EngineShared, RingShard};
use noc_sim::{spsc, Cycle, ShardPool, SpscReceiver, SpscSender};
use std::time::{Duration, Instant};

/// SPSC ring capacity per direction. The protocol bounds in-flight
/// messages at two (see the module docs); the rest is slack.
const MAIL_CAP: usize = 4;

/// How long a task waits on a silent peer before declaring it dead.
/// Only reachable if a peer worker panicked mid-epoch (its own panic is
/// the root cause the pool reports); the cascade turns a would-be
/// deadlock into a typed [`noc_sim::PoolError`].
const PEER_TIMEOUT: Duration = Duration::from_secs(30);

/// One message over a cross-task bridge link.
#[derive(Debug)]
pub(crate) enum BridgeMail {
    /// The sender's post-delivery `rx` inbox depth this cycle.
    Depth(u32),
    /// The `(ready_cycle, flit)` batch the sender's intake staged this
    /// cycle (possibly empty — sent anyway to keep the protocol in
    /// lockstep).
    Batch(Vec<(u64, Flit)>),
}

/// A bridge side whose peer lives in another task: the mailbox
/// endpoints that replace the engine's barrier for this side.
#[derive(Debug)]
struct CrossLink {
    /// Task-local index of the owning shard.
    shard: usize,
    /// Index into that shard's `sides`.
    side: usize,
    tx: SpscSender<BridgeMail>,
    rx: SpscReceiver<BridgeMail>,
}

/// A bridge with both sides owned by the same task; exchanged inline,
/// exactly as the sequential engine does.
#[derive(Debug)]
struct LocalPair {
    /// (task-local shard index, side index) of side `a`.
    a: (usize, usize),
    /// Likewise for side `b`.
    b: (usize, usize),
}

/// A disjoint partition of the network's shards plus the bridge wiring
/// it needs to run epochs on its own. Between epochs `shards` is empty:
/// the engine moves the [`RingShard`]s in for the scatter and takes
/// them back at the gather, so the caller keeps normal access to
/// queues, stats and telemetry at every epoch boundary.
#[derive(Debug)]
pub(crate) struct EpochTask {
    /// Global ring indices of the shards this task owns, ascending;
    /// parallel to `shards` when populated.
    pub ring_ids: Vec<usize>,
    /// The owned shards (populated only while an epoch runs).
    pub shards: Vec<RingShard>,
    cross: Vec<CrossLink>,
    local: Vec<LocalPair>,
}

/// The persistent epoch machinery: the worker pool plus the task
/// skeletons (wiring survives across epochs; shards do not).
#[derive(Debug)]
pub(crate) struct EpochEngine {
    pub pool: ShardPool<EpochTask>,
    pub tasks: Vec<EpochTask>,
}

/// Lazily built epoch engine. Cloning a network must not duplicate OS
/// threads or mailbox endpoints, so a clone starts empty and rebuilds
/// on its first epoch.
#[derive(Default)]
pub(crate) struct EpochCell(pub Option<EpochEngine>);

impl Clone for EpochCell {
    fn clone(&self) -> Self {
        EpochCell(None)
    }
}

impl std::fmt::Debug for EpochCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            Some(e) => write!(f, "EpochCell({} tasks)", e.tasks.len()),
            None => write!(f, "EpochCell(idle)"),
        }
    }
}

/// Partition the rings into at most `slots` contiguous, near-even
/// tasks (never more tasks than rings, never an empty task) and wire
/// every bridge either task-locally or with an SPSC pair per
/// direction. Task `i` is run by pool slot `i`: the pool's round-robin
/// scatter with exactly one item per slot keeps every task on its own
/// thread, which the cycle protocol requires for progress.
pub(crate) fn build_tasks(shared: &EngineShared, slots: usize) -> Vec<EpochTask> {
    let nrings = shared.topo.rings().len();
    let ntasks = slots.clamp(1, nrings.max(1));
    let base = nrings / ntasks;
    let extra = nrings % ntasks;
    let mut tasks: Vec<EpochTask> = Vec::with_capacity(ntasks);
    let mut task_of_ring = vec![0usize; nrings];
    let mut local_of_ring = vec![0usize; nrings];
    let mut next = 0usize;
    for ti in 0..ntasks {
        let len = base + usize::from(ti < extra);
        let ids: Vec<usize> = (next..next + len).collect();
        for (li, &r) in ids.iter().enumerate() {
            task_of_ring[r] = ti;
            local_of_ring[r] = li;
        }
        next += len;
        tasks.push(EpochTask {
            ring_ids: ids,
            shards: Vec::new(),
            cross: Vec::new(),
            local: Vec::new(),
        });
    }
    for locs in &shared.side_loc {
        let [la, lb] = *locs;
        let (ra, rb) = (la.ring as usize, lb.ring as usize);
        let (ta, tb) = (task_of_ring[ra], task_of_ring[rb]);
        let a = (local_of_ring[ra], la.idx as usize);
        let b = (local_of_ring[rb], lb.idx as usize);
        if ta == tb {
            tasks[ta].local.push(LocalPair { a, b });
        } else {
            let (ab_tx, ab_rx) = spsc::channel(MAIL_CAP);
            let (ba_tx, ba_rx) = spsc::channel(MAIL_CAP);
            tasks[ta].cross.push(CrossLink {
                shard: a.0,
                side: a.1,
                tx: ab_tx,
                rx: ba_rx,
            });
            tasks[tb].cross.push(CrossLink {
                shard: b.0,
                side: b.1,
                tx: ba_tx,
                rx: ab_rx,
            });
        }
    }
    tasks
}

fn recv_mail(rx: &SpscReceiver<BridgeMail>) -> BridgeMail {
    let mut spins = 0u32;
    let mut deadline: Option<Instant> = None;
    loop {
        if let Some(mail) = rx.recv() {
            return mail;
        }
        spins += 1;
        if spins < 64 {
            std::hint::spin_loop();
            continue;
        }
        let start = *deadline.get_or_insert_with(Instant::now);
        if spins.is_multiple_of(1024) && start.elapsed() > PEER_TIMEOUT {
            // A panicked peer would otherwise hang every task
            // transitively wired to it; panic too so the pool's gather
            // reports a typed error instead of blocking forever.
            panic!("bridge peer task silent past {PEER_TIMEOUT:?}; peer worker presumed dead");
        }
        std::thread::yield_now();
    }
}

impl EpochTask {
    /// Run cycles `first..=last` on this task's shards, following the
    /// sequential engine's phase order exactly (see the module docs).
    pub(crate) fn run_epoch<const TRACE: bool>(
        &mut self,
        shared: &EngineShared,
        mode: TickMode,
        first: u64,
        last: u64,
    ) {
        for t in first..=last {
            let now = Cycle(t);
            for sh in &mut self.shards {
                sh.phase_deliver::<TRACE>(shared, now);
            }
            // Barrier 1: post-delivery peer inbox depths.
            for p in &self.local {
                let (a, b) = bridge::pair_mut(&mut self.shards, p.a, p.b);
                bridge::snapshot_backlogs(a, b);
            }
            for l in &self.cross {
                let depth = self.shards[l.shard].sides[l.side].rx.len() as u32;
                l.tx.send(BridgeMail::Depth(depth))
                    .expect("mail ring sized for the cycle protocol");
            }
            for l in &self.cross {
                match recv_mail(&l.rx) {
                    BridgeMail::Depth(d) => {
                        self.shards[l.shard].sides[l.side].peer_backlog = d as usize;
                    }
                    BridgeMail::Batch(_) => unreachable!("protocol alternates depth/batch"),
                }
            }
            for sh in &mut self.shards {
                sh.phase_cycle::<TRACE>(shared, now, mode);
            }
            // Barrier 2: staged tx batches onto peer rx inboxes.
            for p in &self.local {
                let (a, b) = bridge::pair_mut(&mut self.shards, p.a, p.b);
                bridge::exchange(a, b);
            }
            for l in &self.cross {
                let batch: Vec<(u64, Flit)> =
                    self.shards[l.shard].sides[l.side].tx.drain(..).collect();
                l.tx.send(BridgeMail::Batch(batch))
                    .expect("mail ring sized for the cycle protocol");
            }
            for l in &self.cross {
                match recv_mail(&l.rx) {
                    BridgeMail::Batch(batch) => {
                        self.shards[l.shard].sides[l.side].rx.extend(batch);
                    }
                    BridgeMail::Depth(_) => unreachable!("protocol alternates depth/batch"),
                }
            }
        }
    }
}
