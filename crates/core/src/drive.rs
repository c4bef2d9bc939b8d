//! The open-loop traffic driver and the drain verdict.
//!
//! Every suite that offers raw flits and then waits for the fabric to
//! empty runs the same two loops: [`OpenLoop::offer`] makes one cycle's
//! Bernoulli offers, and [`drain`] ticks until the network is empty,
//! until it has made no progress for [`STALL_W`] cycles
//! ([`Network::stalled_for`]), or until a cycle budget runs out. The
//! [`Verdict`] names which of the three ended the run; the CHI and
//! transaction drivers (`noc_chi::drive`, `noc_txn::drive`) return the
//! same type.
//!
//! # Example
//!
//! ```
//! use noc_core::drive::{drain, OpenLoop, Verdict};
//! use noc_core::GridParams;
//! use noc_sim::fuzz::TrafficPattern;
//! use noc_sim::SimRng;
//!
//! let params = GridParams::torus(2, 2).with_stations(8).with_seed(1);
//! let (mut net, names) = params.build().unwrap();
//! let devices = noc_core::spec::devices_by_name(&names);
//! let mut offers = OpenLoop::new(devices, TrafficPattern::Uniform, 0.2);
//! let mut rng = SimRng::seed_from(7);
//! for _ in 0..100 {
//!     offers.offer(&mut net, &mut rng);
//!     net.tick();
//!     offers.pop_all(&mut net);
//! }
//! let verdict = drain(&mut net, 10_000, |net| {
//!     offers.pop_all(net);
//!     Ok(())
//! });
//! assert!(matches!(verdict, Ok(Verdict::Drained(_))));
//! ```

use crate::flit::FlitClass;
use crate::ids::NodeId;
use crate::network::Network;
use noc_sim::fuzz::TrafficPattern;
use noc_sim::SimRng;
use noc_telemetry::TraceSink;

/// Cycles without progress ([`Network::stalled_for`]) after which a
/// drain counts as wedged.
pub const STALL_W: u64 = 5_000;

/// How a drain ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Empty after this many drain cycles (0 if it was empty already).
    Drained(u64),
    /// [`drain`] stopped on the stall window with this many flits (for
    /// a transaction fabric, transactions) still in flight.
    Wedged(u64),
    /// The budget ran out with this many flits (or, for a CHI system or
    /// a transaction fabric, transactions) still in flight before any
    /// stall verdict: for [`drain`], the fabric was still making
    /// progress. Never folded into [`Verdict::Drained`].
    OverBudget(u64),
}

/// One cycle's open-loop offers over a fixed device list: each device,
/// in list order, offers one 64-byte data flit with probability `rate`
/// to a destination `pattern` draws, with an incrementing token. A
/// refused enqueue is dropped.
#[derive(Debug, Clone)]
pub struct OpenLoop {
    devices: Vec<NodeId>,
    pattern: TrafficPattern,
    rate: f64,
    token: u64,
}

impl OpenLoop {
    /// Offers over `devices` (at least two) at `rate` per device per
    /// cycle.
    pub fn new(devices: Vec<NodeId>, pattern: TrafficPattern, rate: f64) -> Self {
        OpenLoop {
            devices,
            pattern,
            rate,
            token: 0,
        }
    }

    /// Flits offered so far (accepted or refused).
    pub fn offered(&self) -> u64 {
        self.token
    }

    /// Make one cycle's offers. Per device the draws are
    /// `gen_bool(rate)` (skipped when `rate >= 1.0`: every device
    /// offers), then [`TrafficPattern::pick_dest`].
    pub fn offer<S: TraceSink>(&mut self, net: &mut Network<S>, rng: &mut SimRng) {
        let n = self.devices.len();
        for si in 0..n {
            if self.rate < 1.0 && !rng.gen_bool(self.rate) {
                continue;
            }
            let di = self.pattern.pick_dest(rng, n, si);
            self.token += 1;
            let (src, dst) = (self.devices[si], self.devices[di]);
            let _ = net.enqueue(src, dst, FlitClass::Data, 64, self.token);
        }
    }

    /// Pop every flit delivered to the devices.
    pub fn pop_all<S: TraceSink>(&self, net: &mut Network<S>) {
        for &d in &self.devices {
            while net.pop_delivered(d).is_some() {}
        }
    }
}

/// Tick `net` with no new traffic, calling `after_tick` after every
/// tick, until it is empty ([`Verdict::Drained`]), until it has made no
/// progress for [`STALL_W`] cycles ([`Verdict::Wedged`]) or until
/// `budget` ticks have run ([`Verdict::OverBudget`]); both checks come
/// before each tick. An `Err` from `after_tick` ends the drain with
/// that error. A caller that wants the stuck resources reads
/// [`Network::stall_report`] itself.
pub fn drain<S: TraceSink>(
    net: &mut Network<S>,
    budget: u64,
    mut after_tick: impl FnMut(&mut Network<S>) -> Result<(), String>,
) -> Result<Verdict, String> {
    for ticks in 0.. {
        if net.in_flight() == 0 {
            return Ok(Verdict::Drained(ticks));
        }
        if net.stalled_for() >= STALL_W {
            return Ok(Verdict::Wedged(net.in_flight()));
        }
        if ticks == budget {
            break;
        }
        net.tick();
        after_tick(net)?;
    }
    Ok(Verdict::OverBudget(net.in_flight()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::RingKind;
    use crate::topology::TopologyBuilder;
    use crate::NetworkConfig;

    /// One 8-station full ring with four devices.
    fn ring() -> (Network, Vec<NodeId>) {
        let mut b = TopologyBuilder::new();
        let die = b.add_chiplet("die");
        let r = b.add_ring(die, RingKind::Full, 8).unwrap();
        let devices = (0..4)
            .map(|i| b.add_node(format!("d{i}"), r, 2 * i).unwrap())
            .collect();
        (
            Network::new(b.build().unwrap(), NetworkConfig::default()),
            devices,
        )
    }

    /// At rate 1.0 every device offers without a Bernoulli draw: the
    /// RNG ends where a loop of bare `pick_dest` calls leaves it.
    #[test]
    fn full_rate_offers_draw_only_destinations() {
        let (mut net, devices) = ring();
        let mut offers = OpenLoop::new(devices.clone(), TrafficPattern::Uniform, 1.0);
        let (mut rng, mut bare) = (SimRng::seed_from(5), SimRng::seed_from(5));
        for _ in 0..10 {
            offers.offer(&mut net, &mut rng);
            for si in 0..devices.len() {
                TrafficPattern::Uniform.pick_dest(&mut bare, devices.len(), si);
            }
            net.tick();
        }
        assert_eq!(offers.offered(), 40);
        assert_eq!(rng.next_u64(), bare.next_u64());
    }

    /// A fabric still moving flits when the budget runs out is
    /// `OverBudget`, not `Drained`.
    #[test]
    fn a_drain_cut_short_is_over_budget() {
        let (mut net, devices) = ring();
        for &src in &devices {
            net.enqueue(src, devices[(src.index() + 2) % 4], FlitClass::Data, 64, 0)
                .unwrap();
        }
        let verdict = drain(&mut net, 1, |_| Ok(()));
        assert!(net.in_flight() > 0 && net.stalled_for() < STALL_W);
        assert_eq!(verdict, Ok(Verdict::OverBudget(net.in_flight())));
        assert!(matches!(
            drain(&mut net, 100, |_| Ok(())),
            Ok(Verdict::Drained(_))
        ));
    }
}
