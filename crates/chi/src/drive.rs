//! The closed-loop CHI driver and the settle loop.
//!
//! [`ClosedLoop`] keeps every requester `window` transactions deep from
//! a caller-given request sequence; [`settle`] ticks a system until no
//! transaction is outstanding. `settle` judges by its budget alone and
//! returns the open-loop driver's [`Verdict`]: it has no progress clock,
//! so a system that never empties ends [`Verdict::OverBudget`] with its
//! outstanding count.

use crate::system::{ChiTransport, CoherentSystem, TxnKind};
use crate::types::LineAddr;
use noc_core::NodeId;

pub use noc_core::drive::Verdict;

/// A closed loop of CHI requests: before each tick every requester is
/// topped up to `window` outstanding transactions, in requester order,
/// from the request sequence; after it, completions are retired.
#[derive(Debug, Clone)]
pub struct ClosedLoop {
    window: u32,
    requesters: Vec<NodeId>,
    outstanding: Vec<u32>,
    completed: u64,
}

impl ClosedLoop {
    /// A loop `window` deep over `requesters`.
    pub fn new(window: u32, requesters: &[NodeId]) -> Self {
        ClosedLoop {
            window,
            requesters: requesters.to_vec(),
            outstanding: vec![0; requesters.len()],
            completed: 0,
        }
    }

    /// Run cycles (top up, tick, retire) until `target` transactions
    /// have completed; returns the completed count. A write-back the
    /// requester cannot issue (it does not own the line) is dropped.
    ///
    /// # Panics
    ///
    /// Panics if `requests` runs out, or if a transaction issued
    /// outside the loop completes.
    pub fn run_to<T: ChiTransport>(
        &mut self,
        sys: &mut CoherentSystem<T>,
        requests: &mut impl Iterator<Item = (LineAddr, TxnKind)>,
        target: u64,
    ) -> u64 {
        while self.completed < target {
            for (c, &rn) in self.requesters.iter().enumerate() {
                while self.outstanding[c] < self.window {
                    let (addr, kind) = requests.next().expect("the request sequence ran out");
                    let issued = match kind {
                        TxnKind::Read(k) => Some(sys.read(rn, addr, k)),
                        TxnKind::Write => Some(sys.write(rn, addr)),
                        TxnKind::WriteBack => sys.write_back(rn, addr),
                    };
                    self.outstanding[c] += u32::from(issued.is_some());
                }
            }
            sys.tick();
            for done in sys.take_completions() {
                let c = self.requesters.iter().position(|&r| r == done.rn);
                self.outstanding[c.expect("completions come back to this loop's requesters")] -= 1;
                self.completed += 1;
            }
        }
        self.completed
    }
}

/// Tick `sys`, calling `each_tick` after every tick, until no
/// transaction is outstanding ([`Verdict::Drained`] with the ticks it
/// took) or until `budget` ticks have run ([`Verdict::OverBudget`] with
/// the outstanding count); the check comes before each tick. An `Err`
/// from `each_tick` ends the loop with that error.
pub fn settle<T: ChiTransport>(
    sys: &mut CoherentSystem<T>,
    budget: u64,
    mut each_tick: impl FnMut(&mut CoherentSystem<T>) -> Result<(), String>,
) -> Result<Verdict, String> {
    for ticks in 0..budget {
        if sys.outstanding() == 0 {
            return Ok(Verdict::Drained(ticks));
        }
        sys.tick();
        each_tick(sys)?;
    }
    Ok(match sys.outstanding() {
        0 => Verdict::Drained(budget),
        n => Verdict::OverBudget(n as u64),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{LlcParams, SystemSpec};
    use crate::types::ReadKind;
    use noc_core::FlitClass;
    use noc_sim::Cycle;

    /// A transport that accepts every message and delivers none.
    struct Void(Cycle);

    impl ChiTransport for Void {
        fn offer(&mut self, _: NodeId, _: NodeId, _: FlitClass, _: u32, _: u64) -> bool {
            true
        }
        fn tick(&mut self) {
            self.0 += 1;
        }
        fn now(&self) -> Cycle {
            self.0
        }
        fn recv(&mut self, _: NodeId) -> Option<u64> {
            None
        }
        fn nodes_with_mail(&self) -> impl Iterator<Item = NodeId> + '_ {
            std::iter::empty()
        }
    }

    /// A wedged transport leaves its transactions outstanding: `settle`
    /// returns their count when the budget runs out.
    #[test]
    fn settle_on_a_wedged_transport_returns_the_outstanding_count() {
        let mut sys = CoherentSystem::new(
            Void(Cycle::ZERO),
            SystemSpec {
                requesters: vec![NodeId(0), NodeId(1)],
                home_nodes: vec![NodeId(2)],
                memories: vec![NodeId(3)],
                llc: LlcParams::default(),
            },
        );
        sys.read(NodeId(0), LineAddr(1), ReadKind::Shared);
        sys.write(NodeId(1), LineAddr(2));
        assert_eq!(
            settle(&mut sys, 1_000, |_| Ok(())),
            Ok(Verdict::OverBudget(2))
        );
    }
}
