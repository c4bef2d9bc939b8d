//! Simulation time: the [`Cycle`] newtype.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulation time, measured in clock cycles since reset.
///
/// `Cycle` is ordered and supports the small amount of arithmetic a
/// cycle-accurate model needs (`+ u64`, `- Cycle`).
///
/// # Example
///
/// ```
/// use noc_sim::Cycle;
/// let t = Cycle(100);
/// assert_eq!(t + 10, Cycle(110));
/// assert_eq!((t + 10) - t, 10);
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Cycle(pub u64);

impl Cycle {
    /// Time zero (reset).
    pub const ZERO: Cycle = Cycle(0);

    /// The raw cycle count.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Saturating difference in cycles (`self - earlier`), zero if
    /// `earlier` is in the future.
    #[inline]
    pub fn since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    #[inline]
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;
    /// Elapsed cycles between two points in time.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`.
    #[inline]
    fn sub(self, rhs: Cycle) -> u64 {
        debug_assert!(self.0 >= rhs.0, "negative cycle difference");
        self.0 - rhs.0
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic() {
        let a = Cycle(10);
        assert_eq!(a + 5, Cycle(15));
        assert_eq!(Cycle(15) - a, 5);
        assert_eq!(a.since(Cycle(20)), 0);
        assert_eq!(Cycle(20).since(a), 10);
    }

    #[test]
    fn cycle_add_assign_and_display() {
        let mut c = Cycle::ZERO;
        c += 7;
        assert_eq!(c.raw(), 7);
        assert_eq!(format!("{c}"), "cycle 7");
    }

    #[test]
    fn cycle_ordering() {
        assert!(Cycle(1) < Cycle(2));
        assert_eq!(Cycle::default(), Cycle::ZERO);
    }
}
