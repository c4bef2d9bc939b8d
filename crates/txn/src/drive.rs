//! The transaction driver: a closed loop and the settle loop.
//!
//! [`ClosedLoop`] keeps up to `outstanding` transactions in flight from
//! a caller-given [`TxnRequest`] sequence; [`settle`] ticks a fabric
//! until it is quiet, until its network has made no progress for
//! [`STALL_W`] cycles, or until a budget runs out. Both end in the
//! open-loop driver's [`Verdict`], counted in transactions.
//!
//! # Example
//!
//! ```
//! use noc_core::spec::devices_by_name;
//! use noc_core::{GridParams, Network, NetworkConfig};
//! use noc_txn::drive::{settle, ClosedLoop, Verdict};
//! use noc_txn::{TxnConfig, TxnFabric, TxnOp, TxnRequest};
//!
//! let (topo, names) = GridParams::torus(2, 2).with_devices(8).generate()?.compile()?;
//! let devs = devices_by_name(&names);
//! let mut fab = TxnFabric::new(Network::new(topo, NetworkConfig::default()), TxnConfig::default());
//! let mut reads = (0..40).map(|i| TxnRequest::Point {
//!     src: devs[i % devs.len()],
//!     dst: devs[(i + 3) % devs.len()],
//!     op: TxnOp::Read { bytes: 512 },
//! });
//! let mut lp = ClosedLoop::new(8, usize::MAX);
//! let mut latency = 0;
//! while lp.accepted() < 40 {
//!     lp.cycle(&mut fab, &mut reads, |done| latency += done.latency())?;
//! }
//! assert!(matches!(settle(&mut fab, 100_000, |_| Ok(())), Ok(Verdict::Drained(_))));
//! assert_eq!(fab.counters().completed(), 40);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::fabric::TxnFabric;
use crate::types::{TxnCompletion, TxnError, TxnOp};
use noc_core::telemetry::{SpanSink, TraceSink};
use noc_core::NodeId;
use serde::{Deserialize, Serialize};

pub use noc_core::drive::{Verdict, STALL_W};

/// One transaction request, as a workload generates it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TxnRequest {
    /// Point-to-point operation.
    Point {
        /// Issuing endpoint.
        src: NodeId,
        /// Destination endpoint.
        dst: NodeId,
        /// The operation.
        op: TxnOp,
    },
    /// Broadcast from `src` to `targets`.
    Broadcast {
        /// Root endpoint.
        src: NodeId,
        /// Target set (never contains `src`).
        targets: Vec<NodeId>,
        /// Payload bytes (at most one packet).
        bytes: u32,
    },
}

/// A closed loop of transactions: before each tick it offers requests
/// while fewer than `outstanding` transactions are in flight, at most
/// `per_cycle` a cycle; after it, it retires completions. A refused
/// request is held and offered first on the next cycle, without
/// drawing another, so the request sequence is drawn once per accepted
/// request (plus the one held).
#[derive(Debug, Clone)]
pub struct ClosedLoop {
    outstanding: usize,
    per_cycle: usize,
    held: Option<TxnRequest>,
    accepted: u64,
}

impl ClosedLoop {
    /// A loop keeping up to `outstanding` transactions in flight
    /// ([`TxnFabric::in_flight_txns`]), offering at most `per_cycle` a
    /// cycle (`usize::MAX`: until a refusal or the window is full).
    pub fn new(outstanding: usize, per_cycle: usize) -> Self {
        ClosedLoop {
            outstanding,
            per_cycle,
            held: None,
            accepted: 0,
        }
    }

    /// Requests the fabric has accepted so far.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// One cycle: offer, tick, then hand every completion to
    /// `on_done`, in completion order. An exhausted request sequence
    /// ends the cycle's offers; the tick still runs.
    ///
    /// # Errors
    ///
    /// The [`TxnError`] of a request the fabric rejects outright; that
    /// request is dropped and the cycle does not tick.
    pub fn cycle<S: TraceSink, P: SpanSink>(
        &mut self,
        fab: &mut TxnFabric<S, P>,
        requests: &mut impl Iterator<Item = TxnRequest>,
        mut on_done: impl FnMut(TxnCompletion),
    ) -> Result<(), TxnError> {
        let mut offers = 0;
        while offers < self.per_cycle && fab.in_flight_txns() < self.outstanding {
            let Some(req) = self.held.take().or_else(|| requests.next()) else {
                break;
            };
            offers += 1;
            let accepted = match &req {
                TxnRequest::Point { src, dst, op } => fab.submit(*src, *dst, *op)?,
                TxnRequest::Broadcast {
                    src,
                    targets,
                    bytes,
                } => fab.submit_broadcast(*src, targets, *bytes)?,
            };
            if accepted.is_none() {
                self.held = Some(req);
                break;
            }
            self.accepted += 1;
        }
        fab.tick();
        while let Some(done) = fab.pop_completion() {
            on_done(done);
        }
        Ok(())
    }
}

/// Tick `fab` with no new requests, calling `each_tick` after every
/// tick, until it is quiet ([`Verdict::Drained`]), until its network
/// has made no progress for [`STALL_W`] cycles ([`Verdict::Wedged`]) or
/// until `budget` ticks have run ([`Verdict::OverBudget`]); the checks
/// come before each tick, and the last two carry the live transaction
/// count. An `Err` from `each_tick` ends the loop with that error.
pub fn settle<S: TraceSink, P: SpanSink>(
    fab: &mut TxnFabric<S, P>,
    budget: u64,
    mut each_tick: impl FnMut(&mut TxnFabric<S, P>) -> Result<(), String>,
) -> Result<Verdict, String> {
    for ticks in 0.. {
        if fab.quiet() {
            return Ok(Verdict::Drained(ticks));
        }
        if fab.network().stalled_for() >= STALL_W {
            return Ok(Verdict::Wedged(fab.in_flight_txns() as u64));
        }
        if ticks == budget {
            break;
        }
        fab.tick();
        each_tick(fab)?;
    }
    Ok(Verdict::OverBudget(fab.in_flight_txns() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::ring_fabric;
    use crate::TxnConfig;
    use noc_core::spec::devices_by_name;
    use noc_core::{GridParams, Network, NetworkConfig};
    use std::cell::Cell;

    fn read(src: NodeId, dst: NodeId, bytes: u32) -> TxnRequest {
        TxnRequest::Point {
            src,
            dst,
            op: TxnOp::Read { bytes },
        }
    }

    /// A window of one refuses the second read; the loop offers that
    /// same read again every cycle, drawing nothing new, until the
    /// first completes.
    #[test]
    fn a_refused_request_is_offered_again_unchanged() {
        let (mut fab, d) = ring_fabric(TxnConfig {
            window: 1,
            ..TxnConfig::default()
        });
        let draws = Cell::new(0);
        let mut requests = [read(d[0], d[3], 64), read(d[0], d[4], 192)]
            .into_iter()
            .inspect(|_| draws.set(draws.get() + 1));
        let mut lp = ClosedLoop::new(usize::MAX, usize::MAX);
        let mut done = Vec::new();
        lp.cycle(&mut fab, &mut requests, |c| done.push(c)).unwrap();
        assert_eq!((lp.accepted(), draws.get()), (1, 2));
        assert_eq!(fab.counters().backpressured, 1);
        for cycle in 2.. {
            lp.cycle(&mut fab, &mut requests, |c| done.push(c)).unwrap();
            if lp.accepted() == 2 {
                // Refused once per cycle the first read was in flight.
                assert_eq!(fab.counters().backpressured, cycle - 1);
                break;
            }
            assert_eq!(fab.counters().backpressured, cycle);
        }
        assert_eq!(draws.get(), 2, "one draw per accepted request");
        let verdict = settle(&mut fab, 10_000, |fab| {
            done.extend(fab.drain_completions());
            Ok(())
        });
        assert!(matches!(verdict, Ok(Verdict::Drained(_))));
        let second = done.iter().find(|c| c.bytes == 192).expect("completes");
        assert_eq!((second.src, second.dst), (d[0], d[4]));
    }

    /// With room for every request, `per_cycle = 1` accepts one a tick.
    #[test]
    fn one_offer_per_tick() {
        let (mut fab, d) = ring_fabric(TxnConfig::default());
        let mut requests = (0..).map(|i| read(d[i % 6], d[(i + 1) % 6], 64));
        let mut lp = ClosedLoop::new(usize::MAX, 1);
        for tick in 1..=5 {
            lp.cycle(&mut fab, &mut requests, |_| {}).unwrap();
            assert_eq!((lp.accepted(), fab.now().raw()), (tick, tick));
        }
        assert_eq!(fab.counters().backpressured, 0);
    }

    /// The stride-7 torus of `tests/txn_saturation.rs`: 16 rings of 16
    /// stations, two devices each, 2 KiB non-posted writes from device
    /// `i mod n` to device `(7i + 3) mod n`.
    fn stride7(slots: usize) -> (TxnFabric, impl Iterator<Item = TxnRequest>) {
        let (topo, names) = GridParams::torus(4, 4)
            .with_stations(16)
            .with_devices(2)
            .with_seed(0x7261_6a65)
            .generate()
            .unwrap()
            .compile()
            .unwrap();
        let devs = devices_by_name(&names);
        let cfg = TxnConfig {
            reassembly_slots: slots,
            ..TxnConfig::default()
        };
        let fab = TxnFabric::new(Network::new(topo, NetworkConfig::default()), cfg);
        let n = devs.len();
        let requests = (0..).map(move |i| {
            let dst = match (i * 7 + 3) % n {
                d if d == i % n => (d + 1) % n,
                d => d,
            };
            TxnRequest::Point {
                src: devs[i % n],
                dst: devs[dst],
                op: TxnOp::Write {
                    bytes: 2048,
                    posted: false,
                },
            }
        });
        (fab, requests)
    }

    #[test]
    fn a_credited_run_settles_drained() {
        let (mut fab, requests) = stride7(1);
        let mut requests = requests.take(300);
        let mut lp = ClosedLoop::new(200, usize::MAX);
        while lp.accepted() < 300 {
            lp.cycle(&mut fab, &mut requests, |_| {}).unwrap();
        }
        let verdict = settle(&mut fab, 200_000, |_| Ok(()));
        assert!(matches!(verdict, Ok(Verdict::Drained(n)) if n > 0));
        assert_eq!(fab.counters().completed(), 300);
    }

    /// Legacy admission wedges the stride-7 torus at 200 in flight:
    /// `settle` calls it `Wedged` on the tick the network reaches
    /// `STALL_W` cycles without progress, long before its budget.
    #[test]
    fn the_legacy_stride7_wedge_settles_wedged() {
        let (mut fab, mut requests) = stride7(0);
        let mut lp = ClosedLoop::new(200, usize::MAX);
        for _ in 0..2_000 {
            lp.cycle(&mut fab, &mut requests, |_| {}).unwrap();
        }
        let verdict = settle(&mut fab, 1_000_000, |_| Ok(()));
        assert!(
            matches!(verdict, Ok(Verdict::Wedged(n)) if n > 0),
            "{verdict:?}"
        );
        assert_eq!(fab.network().stalled_for(), STALL_W);
    }
}
