//! A persistent fork-join worker pool for deterministic shard fan-out.
//!
//! [`ShardPool`] owns long-lived `std::thread` workers fed over mpsc
//! channels; each [`ShardPool::run`] call scatters a vector of owned
//! items across the workers (plus the calling thread), applies one job
//! closure to every item, and gathers the items back **in their
//! original order**. Determinism comes for free from ownership: items
//! are moved into exactly one thread, mutated there with no shared
//! state, and reassembled by index — which thread ran which item can
//! never influence the result, only the wall-clock.
//!
//! Spawning a thread costs tens of microseconds; a network tick at low
//! occupancy costs a few. A scoped-thread fan-out per call would drown
//! the work in spawn overhead, so the pool keeps its workers parked on
//! channel receives between calls and a `run` costs two channel hops
//! per worker.
//!
//! # What the engine scatters, and why the result cannot depend on it
//!
//! The engine above performs one `run` per **epoch** of K ≥ 1 simulated
//! cycles. It scatters *epoch tasks* — each owning a disjoint set of
//! shards plus the [`crate::spsc`] mailbox endpoints wiring it to its
//! bridge neighbours — one per slot, and every task runs all K cycles
//! before the single gather. Within the epoch, tasks exchange per-cycle
//! bridge mail over the lock-free SPSC rings (one pair per
//! bridge-connected task pair), never through this pool.
//!
//! The ownership argument has two clauses:
//!
//! 1. **Owned items, no shared state** — each task is moved into
//!    exactly one thread, mutated there, and gathered back by index.
//!    Which thread ran which task cannot influence the result.
//! 2. **Deterministic mail** — the only inter-task communication is the
//!    SPSC traffic, and each message's *content* is a pure function of
//!    the sending shard's state at a fixed cycle (its post-delivery
//!    inbox depth, the flits it staged that cycle). Both ends follow
//!    the same cycle-indexed protocol, so the sequence of messages on
//!    every ring is identical on every run and every thread count —
//!    timing can change *when* a message is consumed, never *what* it
//!    says. By induction over cycles, every shard observes exactly the
//!    inputs it would be fed with all shards on one thread.
//!
//! # Example
//!
//! ```
//! use noc_sim::ShardPool;
//! use std::sync::Arc;
//!
//! let mut pool = ShardPool::new(3); // 3 workers + the calling thread
//! let items: Vec<u64> = (0..10).collect();
//! let out = pool.run(items, Arc::new(|x: &mut u64| *x *= 2)).unwrap();
//! assert_eq!(out, (0..10).map(|x| x * 2).collect::<Vec<_>>());
//! ```

use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// The job applied to each item of a [`ShardPool::run`] call.
pub type PoolJob<T> = Arc<dyn Fn(&mut T) + Send + Sync>;

/// A worker thread died mid-fan-out — its job closure panicked, either
/// during this [`ShardPool::run`] call or a previous one. The items
/// that were scattered to the dead worker are lost, so the pool (and
/// whatever owned the items) is no longer usable; callers should treat
/// this as fatal for the simulation but recoverable for the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolError {
    /// Index of the dead worker lane (0-based; the calling thread is
    /// not a lane).
    pub worker: usize,
    /// Whether the death was detected while scattering (`true`: the
    /// worker was already dead from a previous job) or while gathering
    /// (`false`: the job panicked during this run).
    pub on_dispatch: bool,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.on_dispatch {
            write!(
                f,
                "shard worker {} is dead (a previous job panicked in it); its items were lost",
                self.worker
            )
        } else {
            write!(
                f,
                "shard worker {} died (job panicked in worker); its items were lost",
                self.worker
            )
        }
    }
}

impl std::error::Error for PoolError {}

struct Job<T> {
    items: Vec<(usize, T)>,
    job: PoolJob<T>,
}

struct WorkerLane<T> {
    tx: Sender<Job<T>>,
    rx: Receiver<Vec<(usize, T)>>,
    handle: JoinHandle<()>,
}

/// A fixed-size pool of parked worker threads executing owned-item
/// fan-outs with order-preserving gather (see the module docs).
pub struct ShardPool<T: Send + 'static> {
    lanes: Vec<WorkerLane<T>>,
}

impl<T: Send + 'static> ShardPool<T> {
    /// Spawn `workers` threads. Zero is valid: every `run` then executes
    /// entirely on the calling thread through the same code path.
    pub fn new(workers: usize) -> Self {
        let lanes = (0..workers)
            .map(|i| {
                let (jtx, jrx) = mpsc::channel::<Job<T>>();
                let (rtx, rrx) = mpsc::channel::<Vec<(usize, T)>>();
                let handle = std::thread::Builder::new()
                    .name(format!("noc-shard-{i}"))
                    .spawn(move || {
                        while let Ok(mut job) = jrx.recv() {
                            for (_, item) in &mut job.items {
                                (job.job)(item);
                            }
                            if rtx.send(job.items).is_err() {
                                break; // pool dropped mid-run
                            }
                        }
                    })
                    .expect("spawn shard worker");
                WorkerLane {
                    tx: jtx,
                    rx: rrx,
                    handle,
                }
            })
            .collect();
        ShardPool { lanes }
    }

    /// Number of spawned worker threads (the calling thread is extra).
    pub fn workers(&self) -> usize {
        self.lanes.len()
    }

    /// Apply `job` to every item, distributing round-robin over
    /// `workers() + 1` threads, and return the items in their original
    /// order. The calling thread processes its own share while the
    /// workers run theirs.
    ///
    /// # Errors
    ///
    /// Returns [`PoolError`] if a worker thread died — because its job
    /// closure panicked during this call, or a previous one already
    /// killed it. The items handed to dead workers are lost; the error
    /// is surfaced (instead of panicking mid-sweep) so the engine above
    /// can report a typed failure and leave the process alive.
    pub fn run(&mut self, items: Vec<T>, job: PoolJob<T>) -> Result<Vec<T>, PoolError> {
        let slots = self.lanes.len() + 1;
        let mut chunks: Vec<Vec<(usize, T)>> = (0..slots).map(|_| Vec::new()).collect();
        for (i, item) in items.into_iter().enumerate() {
            chunks[i % slots].push((i, item));
        }
        let mut chunks = chunks.into_iter();
        let mut own = chunks.next().expect("slots >= 1");
        let mut dispatched = 0usize;
        let mut error: Option<PoolError> = None;
        for (wi, (lane, chunk)) in self.lanes.iter().zip(chunks).enumerate() {
            let sent = lane
                .tx
                .send(Job {
                    items: chunk,
                    job: Arc::clone(&job),
                })
                .is_ok();
            if sent {
                dispatched += 1;
            } else {
                // The worker's receive loop is gone: a previous job
                // panicked in it. Stop scattering; still gather from
                // the workers already fed so their items are not
                // abandoned mid-flight.
                error = Some(PoolError {
                    worker: wi,
                    on_dispatch: true,
                });
                break;
            }
        }
        for (_, item) in &mut own {
            job(item);
        }
        for (wi, lane) in self.lanes.iter().take(dispatched).enumerate() {
            match lane.rx.recv() {
                Ok(returned) => own.extend(returned),
                Err(_) => {
                    error.get_or_insert(PoolError {
                        worker: wi,
                        on_dispatch: false,
                    });
                }
            }
        }
        if let Some(e) = error {
            return Err(e);
        }
        // Every index came back exactly once; restore the input order.
        own.sort_unstable_by_key(|&(i, _)| i);
        Ok(own.into_iter().map(|(_, item)| item).collect())
    }
}

impl<T: Send + 'static> Drop for ShardPool<T> {
    fn drop(&mut self) {
        for WorkerLane { tx, handle, .. } in self.lanes.drain(..) {
            drop(tx); // closing the channel ends the worker's receive loop
            let _ = handle.join();
        }
    }
}

impl<T: Send + 'static> std::fmt::Debug for ShardPool<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPool")
            .field("workers", &self.lanes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_workers_runs_inline() {
        let mut pool = ShardPool::new(0);
        let out = pool
            .run(vec![1u32, 2, 3], Arc::new(|x: &mut u32| *x += 10))
            .unwrap();
        assert_eq!(out, vec![11, 12, 13]);
    }

    #[test]
    fn order_is_preserved_for_every_worker_count() {
        for workers in 0..5 {
            let mut pool = ShardPool::new(workers);
            let items: Vec<usize> = (0..17).collect();
            let out = pool
                .run(items, Arc::new(|x: &mut usize| *x = *x * 3 + 1))
                .unwrap();
            assert_eq!(
                out,
                (0..17).map(|x| x * 3 + 1).collect::<Vec<_>>(),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn pool_is_reusable_across_runs() {
        let mut pool = ShardPool::new(2);
        for round in 0..10u64 {
            let out = pool
                .run(vec![round; 5], Arc::new(|x: &mut u64| *x += 1))
                .unwrap();
            assert_eq!(out, vec![round + 1; 5]);
        }
    }

    #[test]
    fn fewer_items_than_threads() {
        let mut pool = ShardPool::new(7);
        let out = pool.run(vec![5u8], Arc::new(|x: &mut u8| *x *= 2)).unwrap();
        assert_eq!(out, vec![10]);
        let out: Vec<u8> = pool.run(Vec::new(), Arc::new(|_: &mut u8| {})).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn threads_actually_participate() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen = Arc::new(Mutex::new(HashSet::new()));
        let mut pool = ShardPool::new(2);
        let s = Arc::clone(&seen);
        pool.run(
            vec![(); 12],
            Arc::new(move |_: &mut ()| {
                s.lock().unwrap().insert(std::thread::current().id());
            }),
        )
        .unwrap();
        assert_eq!(seen.lock().unwrap().len(), 3, "2 workers + caller");
    }

    #[test]
    fn dead_worker_surfaces_typed_error_not_panic() {
        // A job that panics only when run inside a pool worker thread
        // (the caller's own chunk must survive so the error path, not
        // an unwind, reports the failure).
        let bomb: PoolJob<u32> = Arc::new(|_: &mut u32| {
            if std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("noc-shard"))
            {
                panic!("boom");
            }
        });
        let mut pool = ShardPool::new(1);
        // First run: the panic happens during this call, detected at
        // gather time.
        let err = pool.run(vec![1u32, 2, 3], bomb).unwrap_err();
        assert_eq!(
            err,
            PoolError {
                worker: 0,
                on_dispatch: false
            }
        );
        assert!(err.to_string().contains("died"), "{err}");
        // Second run: the worker is already gone, detected at dispatch.
        let err = pool
            .run(vec![4u32, 5], Arc::new(|x: &mut u32| *x += 1))
            .unwrap_err();
        assert_eq!(
            err,
            PoolError {
                worker: 0,
                on_dispatch: true
            }
        );
        assert!(err.to_string().contains("previous job"), "{err}");
    }
}
