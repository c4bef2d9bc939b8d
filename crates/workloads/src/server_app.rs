//! A server-application request model (§3.1.1): client requests over
//! big data whose popularity follows a Zipfian distribution, with
//! bursty arrivals and a read-heavy operation mix — the traffic a
//! key-value store or web tier presents to the memory system.

use crate::zipf::Zipf;
use noc_sim::SimRng;
use serde::{Deserialize, Serialize};

/// One memory operation implied by serving a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerOp {
    /// Cache-line address touched.
    pub line: u64,
    /// Whether the touch is a write.
    pub is_write: bool,
}

/// Zipf skew of object popularity (≈0.99 for memcached-like).
const SKEW: f64 = 0.99;
/// Cache lines touched per request (object size / line size).
const LINES_PER_REQUEST: u32 = 4;
/// Fraction of requests that mutate their object.
const WRITE_FRAC: f64 = 0.1;
/// Distinct objects in the store (memcached-flavoured: 64k).
pub const OBJECTS: usize = 65_536;
/// Mean requests per kilocycle per front-end core.
pub const REQUESTS_PER_KCYCLE: f64 = 20.0;

/// Generates per-cycle memory operations for one front-end core.
///
/// # Example
///
/// ```
/// use noc_workloads::ServerApp;
/// let mut app = ServerApp::new(7);
/// let mut ops = 0;
/// for _ in 0..10_000 {
///     ops += app.cycle_ops().len();
/// }
/// assert!(ops > 0);
/// ```
#[derive(Debug, Clone)]
pub struct ServerApp {
    zipf: Zipf,
    rng: SimRng,
    /// Operations queued from the in-flight request.
    pending: Vec<ServerOp>,
    /// Cycles until the next request arrives.
    gap: u64,
}

impl ServerApp {
    /// Create a generator with its own seeded RNG.
    pub fn new(seed: u64) -> Self {
        ServerApp {
            zipf: Zipf::new(OBJECTS, SKEW),
            rng: SimRng::seed_from(seed),
            pending: Vec::new(),
            gap: 0,
        }
    }

    fn start_request(&mut self) {
        let object = self.zipf.sample(&mut self.rng) as u64;
        let is_write = self.rng.gen_bool(WRITE_FRAC);
        let base = object * u64::from(LINES_PER_REQUEST);
        for i in 0..LINES_PER_REQUEST {
            self.pending.push(ServerOp {
                line: base + u64::from(i),
                is_write,
            });
        }
    }

    /// Advance one cycle and return the operations to issue this cycle
    /// (at most one — cores serialize their misses at this layer; MLP is
    /// the memory system's job).
    pub fn cycle_ops(&mut self) -> Vec<ServerOp> {
        if self.pending.is_empty() {
            if self.gap == 0 {
                let p = REQUESTS_PER_KCYCLE / 1000.0;
                self.gap = self.rng.gen_gap(p.min(1.0));
            }
            self.gap = self.gap.saturating_sub(1);
            if self.gap == 0 {
                self.start_request();
            }
        }
        match self.pending.pop() {
            Some(op) => vec![op],
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_rate_roughly_matches() {
        let mut app = ServerApp::new(3);
        let ops: usize = (0..100_000).map(|_| app.cycle_ops().len()).sum();
        // 20 req/kcycle × 100 kcycle × 4 lines = ~8_000 ops, within 40 %.
        let expected = REQUESTS_PER_KCYCLE * 100.0 * f64::from(LINES_PER_REQUEST);
        let ops = ops as f64;
        assert!((0.6 * expected..1.4 * expected).contains(&ops), "ops {ops}");
    }

    #[test]
    fn popularity_is_skewed() {
        let mut app = ServerApp::new(5);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..200_000 {
            for op in app.cycle_ops() {
                *counts.entry(op.line / 4).or_insert(0u32) += 1;
            }
        }
        let total: u32 = counts.values().sum();
        let mut sorted: Vec<u32> = counts.values().copied().collect();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top100: u32 = sorted.iter().take(100).sum();
        assert!(
            f64::from(top100) / f64::from(total) > 0.2,
            "top-100 objects carry {}%, expected Zipfian head",
            100 * top100 / total
        );
    }

    #[test]
    fn write_fraction_respected() {
        let mut app = ServerApp::new(9);
        let mut writes = 0u32;
        let mut total = 0u32;
        for _ in 0..200_000 {
            for op in app.cycle_ops() {
                total += 1;
                if op.is_write {
                    writes += 1;
                }
            }
        }
        let frac = f64::from(writes) / f64::from(total);
        assert!((frac - WRITE_FRAC).abs() < 0.03, "write frac {frac}");
    }

    #[test]
    fn requests_touch_consecutive_lines() {
        let mut app = ServerApp::new(1);
        // Collect one full request's ops.
        let mut ops = Vec::new();
        while ops.len() < 4 {
            ops.extend(app.cycle_ops());
        }
        let base = ops.iter().map(|o| o.line).min().unwrap();
        let mut lines: Vec<u64> = ops.iter().map(|o| o.line - base).collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![0, 1, 2, 3]);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut app = ServerApp::new(seed);
            (0..50_000)
                .flat_map(|_| app.cycle_ops())
                .map(|o| o.line)
                .sum::<u64>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }
}
