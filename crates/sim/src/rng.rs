//! Deterministic pseudo-random numbers for simulations.
//!
//! Every stochastic choice in the workspace flows through [`SimRng`] so
//! that a run is a pure function of its seed. The generator is
//! xoshiro256** seeded via SplitMix64 — fast, well distributed, and
//! trivially portable.

use std::ops::Range;

/// A deterministic, seedable PRNG (xoshiro256** with SplitMix64 seeding).
///
/// # Example
///
/// ```
/// use noc_sim::SimRng;
/// let mut a = SimRng::seed_from(7);
/// let mut b = SimRng::seed_from(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // identical streams
/// let x = a.gen_range(0..10);
/// assert!(x < 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derive an independent child stream (for per-agent RNGs).
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from(self.next_u64())
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, 1)`.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in the half-open range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn gen_range(&mut self, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "gen_range on empty range");
        let span = range.end - range.start;
        // Lemire's multiply-shift rejection method for unbiased bounded ints.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(span as u128);
        let mut lo = m as u64;
        if lo < span {
            let threshold = span.wrapping_neg() % span;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(span as u128);
                lo = m as u64;
            }
        }
        range.start + (m >> 64) as u64
    }

    /// Uniform `usize` in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn gen_index(&mut self, n: usize) -> usize {
        self.gen_range(0..n as u64) as usize
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// Pick a reference to a uniformly random element.
    ///
    /// Returns `None` on an empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            Some(&items[self.gen_index(items.len())])
        }
    }

    /// Sample a geometric-ish inter-arrival gap for a Bernoulli process of
    /// rate `p` per cycle: the number of cycles until the next arrival
    /// (at least 1). `p >= 1` always returns 1; `p <= 0` returns `u64::MAX`.
    pub fn gen_gap(&mut self, p: f64) -> u64 {
        if p >= 1.0 {
            return 1;
        }
        if p <= 0.0 {
            return u64::MAX;
        }
        // Inverse CDF of the geometric distribution.
        let u = self.gen_f64().max(1e-18);
        (u.ln() / (1.0 - p).ln()).ceil().max(1.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = SimRng::seed_from(123);
        let mut b = SimRng::seed_from(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn gen_range_bounds() {
        let mut r = SimRng::seed_from(9);
        for _ in 0..10_000 {
            let v = r.gen_range(5..17);
            assert!((5..17).contains(&v));
        }
    }

    #[test]
    fn gen_range_covers_all_values() {
        let mut r = SimRng::seed_from(4);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.gen_range(0..8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut r = SimRng::seed_from(11);
        for _ in 0..10_000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_bool_rate_roughly_matches() {
        let mut r = SimRng::seed_from(21);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.25)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn choose_empty_is_none() {
        let mut r = SimRng::seed_from(3);
        let empty: [u8; 0] = [];
        assert!(r.choose(&empty).is_none());
        assert_eq!(r.choose(&[42]), Some(&42));
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = SimRng::seed_from(5);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn gen_gap_edge_rates() {
        let mut r = SimRng::seed_from(5);
        assert_eq!(r.gen_gap(1.5), 1);
        assert_eq!(r.gen_gap(0.0), u64::MAX);
        let g = r.gen_gap(0.5);
        assert!(g >= 1);
    }

    #[test]
    fn gen_gap_mean_close_to_inverse_rate() {
        let mut r = SimRng::seed_from(77);
        let p = 0.1;
        let n = 50_000;
        let total: u64 = (0..n).map(|_| r.gen_gap(p)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 10.0).abs() < 0.5, "mean {mean}");
    }
}
