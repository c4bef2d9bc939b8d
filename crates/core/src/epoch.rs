//! The engine's one cycle loop, and the worker pool that runs it on
//! partitions of the fabric.
//!
//! # The cycle loop
//!
//! [`run_cycles`] is the only place the tick's phases are spelled out.
//! For every cycle of an epoch it runs, over the shards it was handed:
//! deliver → barrier 1 → per-ring cycle → barrier 2. The barriers keep
//! one invariant across shards — every bridge side's
//! [`BridgeSide::peer_backlog`] equals its peer's `rx` length — and
//! they do it by event, not by census: [`bridge::publish_pops`] visits
//! the sides delivery popped from this cycle (per shard, straight after
//! that shard's delivery — nothing reads a depth before the per-ring
//! phase), [`bridge::exchange`] the sides intake staged into (see
//! [`crate::bridge`]). A bridge whose two sides are both among the
//! shards at hand needs nothing else.
//!
//! A bridge whose peer lives in another task is a **cross link**: the
//! same two values travel over a dedicated pair of [`noc_sim::spsc`]
//! rings (one per direction per bridge) as [`BridgeMail`], every cycle,
//! marked or not — the lockstep is what bounds how far one thread can
//! run ahead of another:
//! 1. after delivery, each side sends its own post-delivery inbox
//!    depth and receives the peer's;
//! 2. after the per-ring cycle, each side sends the flit batch its
//!    intake staged this cycle (adding its length to `peer_backlog`, so
//!    the invariant also holds when the epoch ends and the next one
//!    runs under another partitioning) and appends the peer's batch
//!    onto `rx` through the same [`RingShard::receive`] a local
//!    exchange uses.
//!
//! The calling thread runs the loop over every shard with no cross
//! links — that is `ExecMode::Sequential`, and
//! `Parallel(0)`/`Parallel(1)`, with nothing moved and no pool. Under
//! `Parallel(n ≥ 2)` an [`EpochEngine`] partitions the shards into one
//! [`EpochTask`] per pool slot (contiguous ring ranges, so chain-like
//! topologies keep most bridges task-internal), moves the shards in,
//! and every task runs the same loop on its partition.
//!
//! # Why cross links cannot change the result
//!
//! Both ends of a link follow the cycle-indexed protocol in lockstep,
//! so every message's content is a pure function of the sending shard's
//! state at a fixed cycle — scheduling can change *when* a message is
//! consumed, never what it says. Per cycle and per direction a link
//! carries one `Depth` then one `Batch`; a producer can run at most one
//! cycle ahead before blocking on its peer's depth, so at most two
//! messages are ever in flight per direction ([`MAIL_CAP`] has slack on
//! top). The protocol *is* the local barrier, relocated: same values,
//! same per-bridge pairing, same cycle.
//!
//! # Why epochs may be longer than one cycle
//!
//! The pool handoff costs two mpsc hops per worker, paid once per
//! epoch. The epoch bound (K ≤ the minimum bridge traversal latency,
//! [`crate::Network::max_epoch`]) guarantees no flit can both enter and
//! mature in a bridge pipeline within one epoch, which is what lets the
//! engine defer every caller-visible drain (traces, metrics,
//! utilization) to the epoch boundary without an observable reordering.
//! A one-cycle epoch is not a special case of any of this.
//!
//! [`BridgeSide::peer_backlog`]: crate::bridge::BridgeSide::peer_backlog

use crate::bridge;
use crate::flit::Flit;
use crate::network::TickMode;
use crate::shard::{EngineShared, RingShard, SideLoc};
use noc_sim::{spsc, Cycle, PoolError, PoolJob, ShardPool, SpscReceiver, SpscSender};
use std::sync::Arc;
use std::time::Duration;

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
enum BridgeMail {
    /// The sender's post-delivery `rx` inbox depth this cycle.
    Depth(u32),
    /// The `(ready_cycle, flit)` batch the sender's intake staged this
    /// cycle (possibly empty — sent anyway to keep the protocol in
    /// lockstep).
    Batch(Vec<(u64, Flit)>),
}

/// A bridge side whose peer lives in another task: the mailbox
/// endpoints that carry the barriers for this side.
#[derive(Debug)]
pub(crate) struct CrossLink {
    /// The side, with `ring` indexing the owning task's shard slice.
    at: SideLoc,
    tx: SpscSender<BridgeMail>,
    rx: SpscReceiver<BridgeMail>,
}

impl CrossLink {
    fn send(&self, mail: BridgeMail) {
        self.tx
            .send(mail)
            .expect("mail ring sized for the cycle protocol");
    }

    /// Wait for the peer's next message. A panicked peer would
    /// otherwise hang every task transitively wired to it; panic too so
    /// the pool's gather reports a typed error instead of blocking
    /// forever.
    fn recv(&self) -> BridgeMail {
        self.rx.recv_timeout(PEER_TIMEOUT).unwrap_or_else(|| {
            panic!("bridge peer task silent past {PEER_TIMEOUT:?}; peer worker presumed dead")
        })
    }
}

/// [`run_cycles`] at a fixed `TRACE`, as the engine hands it to
/// whichever thread runs it.
pub(crate) type CycleLoop = fn(&mut [RingShard], &[CrossLink], &EngineShared, TickMode, u64, u64);

/// Run cycles `first..=last` on `shards`, a contiguous run of rings.
/// `cross` indexes into `shards` (see the module docs for the phase
/// order and what the barriers do).
pub(crate) fn run_cycles<const TRACE: bool>(
    shards: &mut [RingShard],
    cross: &[CrossLink],
    shared: &EngineShared,
    mode: TickMode,
    first: u64,
    last: u64,
) {
    for t in first..=last {
        let now = Cycle(t);
        // Deliver, and barrier 1: post-delivery inbox depths reach the
        // peers of the sides that were popped from.
        for sh in 0..shards.len() {
            if shards[sh].phase_deliver::<TRACE>(shared, now) {
                bridge::publish_pops(shards, sh);
            }
        }
        for l in cross {
            let (sh, side) = l.at.at();
            l.send(BridgeMail::Depth(shards[sh].sides[side].rx.len() as u32));
        }
        for l in cross {
            let (sh, side) = l.at.at();
            match l.recv() {
                BridgeMail::Depth(d) => shards[sh].sides[side].peer_backlog = d as usize,
                BridgeMail::Batch(_) => unreachable!("protocol alternates depth/batch"),
            }
        }
        debug_check_barrier(shards, t);
        for sh in shards.iter_mut() {
            sh.phase_cycle::<TRACE>(shared, now, mode);
        }
        // Barrier 2: staged tx batches onto peer rx inboxes.
        bridge::exchange(shards);
        for l in cross {
            let (sh, side) = l.at.at();
            let side = &mut shards[sh].sides[side];
            let batch: Vec<_> = side.tx.drain(..).collect();
            side.peer_backlog += batch.len();
            l.send(BridgeMail::Batch(batch));
        }
        for l in cross {
            let (sh, side) = l.at.at();
            match l.recv() {
                BridgeMail::Batch(batch) => {
                    shards[sh].receive(side, &mut batch.into());
                }
                BridgeMail::Depth(_) => unreachable!("protocol alternates depth/batch"),
            }
        }
    }
}

/// Debug builds: after barrier 1 of cycle `now`, walk every side and
/// check what only the loop can see — delivery skipped no side that had
/// a matured flit and room for it, and every side whose peer is at hand
/// holds that peer's true inbox depth. (The shard-local indices are
/// checked by `RingShard::debug_check_side_indices`.)
fn debug_check_barrier(shards: &[RingShard], now: u64) {
    if !cfg!(debug_assertions) {
        return;
    }
    for (sh, shard) in shards.iter().enumerate() {
        for (si, side) in shard.sides.iter().enumerate() {
            let ring = shard.ring.id;
            assert!(
                side.head_due() > now || shard.nodes[side.endpoint as usize].inject.is_full(),
                "{ring} side {si}: delivery skipped a matured flit at cycle {now}"
            );
            if let Some((ps, pi)) = bridge::peer_of(shards, sh, si) {
                assert_eq!(
                    side.peer_backlog,
                    shards[ps].sides[pi].rx.len(),
                    "{ring} side {si}: stale peer_backlog at cycle {now}"
                );
            }
        }
    }
}

/// A contiguous range of the network's shards plus the bridge wiring it
/// needs to run the cycle loop on its own. Between epochs `shards` is
/// empty: the engine moves the [`RingShard`]s in for the scatter and
/// takes them back at the gather, so the caller keeps normal access to
/// queues, stats and telemetry at every epoch boundary.
#[derive(Debug)]
struct EpochTask {
    /// How many consecutive rings this task owns.
    rings: usize,
    /// The owned shards (populated only while an epoch runs).
    shards: Vec<RingShard>,
    /// Bridge sides whose peer another task owns.
    cross: Vec<CrossLink>,
}

/// The worker pool plus the task skeletons (wiring survives across
/// epochs; shards do not). A network owns at most one, and only while
/// its [`ExecMode`](crate::ExecMode) asks for workers.
#[derive(Debug)]
pub(crate) struct EpochEngine {
    pool: ShardPool<EpochTask>,
    tasks: Vec<EpochTask>,
}

/// Lazily built epoch engine. Cloning a network must not duplicate OS
/// threads or mailbox endpoints, so a clone starts empty and rebuilds
/// on its first parallel epoch.
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
            Some(e) => write!(f, "EpochCell({} workers)", e.workers()),
            None => write!(f, "EpochCell(idle)"),
        }
    }
}

impl EpochEngine {
    /// Spawn `workers` threads and partition the rings into at most
    /// `workers + 1` contiguous, near-even tasks (never more tasks than
    /// rings, never an empty task), wiring every bridge that joins two
    /// tasks with an SPSC pair per direction. Task `i` is run
    /// by pool slot `i`: the pool's round-robin scatter with exactly one
    /// item per slot keeps every task on its own thread, which the
    /// cycle protocol requires for progress.
    pub(crate) fn new(shared: &EngineShared, workers: usize) -> Self {
        let nrings = shared.topo.rings().len();
        let ntasks = (workers + 1).clamp(1, nrings.max(1));
        let (base, extra) = (nrings / ntasks, nrings % ntasks);
        let mut tasks: Vec<EpochTask> = Vec::with_capacity(ntasks);
        // Global ring index → (task, task-local index).
        let mut home = Vec::with_capacity(nrings);
        for ti in 0..ntasks {
            let rings = base + usize::from(ti < extra);
            home.extend((0..rings).map(|li| (ti, li as u16)));
            tasks.push(EpochTask {
                rings,
                shards: Vec::with_capacity(rings),
                cross: Vec::new(),
            });
        }
        for &[la, lb] in &shared.side_loc {
            let ((ta, ra), (tb, rb)) = (home[la.ring as usize], home[lb.ring as usize]);
            if ta == tb {
                continue;
            }
            let (ab_tx, ab_rx) = spsc::channel(MAIL_CAP);
            let (ba_tx, ba_rx) = spsc::channel(MAIL_CAP);
            tasks[ta].cross.push(CrossLink {
                at: SideLoc { ring: ra, ..la },
                tx: ab_tx,
                rx: ba_rx,
            });
            tasks[tb].cross.push(CrossLink {
                at: SideLoc { ring: rb, ..lb },
                tx: ba_tx,
                rx: ab_rx,
            });
        }
        EpochEngine {
            pool: ShardPool::new(workers),
            tasks,
        }
    }

    /// Pooled worker threads (the calling thread is extra).
    pub(crate) fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Move `shards` into the tasks, run `cycles` over `first..=last` on
    /// every task concurrently, and move the shards back in ring order.
    ///
    /// # Errors
    ///
    /// On a dead worker `shards` is left empty — the shards died with
    /// it — and this engine must be dropped.
    pub(crate) fn run(
        &mut self,
        shards: &mut Vec<RingShard>,
        cycles: CycleLoop,
        shared: &Arc<EngineShared>,
        mode: TickMode,
        first: u64,
        last: u64,
    ) -> Result<(), PoolError> {
        let mut tasks = std::mem::take(&mut self.tasks);
        let mut src = shards.drain(..);
        for task in &mut tasks {
            task.shards.extend(src.by_ref().take(task.rings));
        }
        drop(src);
        let shared = Arc::clone(shared);
        let job: PoolJob<EpochTask> = Arc::new(move |t: &mut EpochTask| {
            cycles(&mut t.shards, &t.cross, &shared, mode, first, last)
        });
        self.tasks = self.pool.run(tasks, job)?;
        // Tasks come back in slot order and own ascending contiguous
        // ranges, so concatenation restores ring order.
        for task in &mut self.tasks {
            shards.append(&mut task.shards);
        }
        Ok(())
    }
}
