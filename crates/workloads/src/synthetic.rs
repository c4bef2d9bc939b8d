//! Synthetic traffic generators for raw NoC experiments.

use noc_core::FlitClass;
use noc_sim::fuzz::TrafficPattern;
use noc_sim::SimRng;

/// Payload bytes of every generated transaction (one cache line).
const PAYLOAD_BYTES: u32 = 64;

/// A traffic injector: at a given per-node rate, produce `(src, dst)`
/// endpoint indices plus a read/write class mix.
///
/// The generator speaks in *endpoint indices* `0..n`; the harness maps
/// them onto actual [`noc_core::NodeId`]s.
///
/// # Example
///
/// ```
/// use noc_sim::fuzz::TrafficPattern;
/// use noc_workloads::TrafficGen;
/// let mut gen = TrafficGen::new(8, 0.5, TrafficPattern::Uniform, 0.5, 42);
/// let events = gen.cycle_events();
/// for (src, dst, _class, _bytes) in events {
///     assert!(src < 8 && dst < 8 && src != dst);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct TrafficGen {
    n: usize,
    rate: f64,
    pattern: TrafficPattern,
    read_frac: f64,
    rng: SimRng,
}

impl TrafficGen {
    /// Create a generator over `n` endpoints injecting with probability
    /// `rate` per endpoint per cycle; `read_frac` of transactions are
    /// reads (Request class), the rest writes (Data class).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `rate`/`read_frac` are outside `[0, 1]`.
    pub fn new(n: usize, rate: f64, pattern: TrafficPattern, read_frac: f64, seed: u64) -> Self {
        assert!(n >= 2, "need at least two endpoints");
        assert!((0.0..=1.0).contains(&rate), "rate in [0,1]");
        assert!((0.0..=1.0).contains(&read_frac), "read_frac in [0,1]");
        TrafficGen {
            n,
            rate,
            pattern,
            read_frac,
            rng: SimRng::seed_from(seed),
        }
    }

    /// Endpoint count.
    pub fn endpoints(&self) -> usize {
        self.n
    }

    /// Injection rate per endpoint per cycle.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Generate this cycle's injection events:
    /// `(src_index, dst_index, class, payload_bytes)`.
    pub fn cycle_events(&mut self) -> Vec<(usize, usize, FlitClass, u32)> {
        let mut out = Vec::new();
        for src in 0..self.n {
            if self.rng.gen_bool(self.rate) {
                let dst = self.pattern.pick_dest(&mut self.rng, self.n, src);
                let class = if self.rng.gen_bool(self.read_frac) {
                    FlitClass::Request
                } else {
                    FlitClass::Data
                };
                out.push((src, dst, class, PAYLOAD_BYTES));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_respect_rate() {
        let mut g = TrafficGen::new(16, 0.25, TrafficPattern::Uniform, 0.5, 1);
        let total: usize = (0..4000).map(|_| g.cycle_events().len()).sum();
        let per_node_rate = total as f64 / 4000.0 / 16.0;
        assert!((per_node_rate - 0.25).abs() < 0.02, "rate {per_node_rate}");
    }

    #[test]
    fn no_self_traffic() {
        for pattern in [
            TrafficPattern::Uniform,
            TrafficPattern::Hotspot {
                target: 0,
                bias: 0.8,
            },
        ] {
            let mut g = TrafficGen::new(9, 1.0, pattern, 0.5, 2);
            for _ in 0..200 {
                for (s, d, _, _) in g.cycle_events() {
                    assert_ne!(s, d, "{pattern:?} generated self traffic");
                }
            }
        }
    }

    #[test]
    fn hotspot_concentrates_on_node_zero() {
        let mut g = TrafficGen::new(
            16,
            1.0,
            TrafficPattern::Hotspot {
                target: 0,
                bias: 0.7,
            },
            0.5,
            3,
        );
        let mut to_zero = 0usize;
        let mut total = 0usize;
        for _ in 0..2000 {
            for (_, d, _, _) in g.cycle_events() {
                total += 1;
                if d == 0 {
                    to_zero += 1;
                }
            }
        }
        let frac = to_zero as f64 / total as f64;
        assert!(frac > 0.5, "hotspot fraction {frac}");
    }

    #[test]
    fn read_fraction_respected() {
        let mut g = TrafficGen::new(8, 1.0, TrafficPattern::Uniform, 0.8, 4);
        let mut reads = 0usize;
        let mut total = 0usize;
        for _ in 0..2000 {
            for (_, _, c, _) in g.cycle_events() {
                total += 1;
                if c == FlitClass::Request {
                    reads += 1;
                }
            }
        }
        let frac = reads as f64 / total as f64;
        assert!((frac - 0.8).abs() < 0.02, "read frac {frac}");
    }
}
