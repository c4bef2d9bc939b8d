//! # noc-sim — cycle-driven simulation kernel
//!
//! The substrate every other crate in this workspace builds on. The whole
//! workspace is cycle-driven rather than event-driven: a NoC is a dense
//! synchronous system where nearly every element does work every cycle, so
//! each model exposes its own `tick()` and its callers loop over it. This
//! crate provides:
//!
//! * [`Cycle`] — a newtype for simulation time measured in clock cycles.
//! * [`SimRng`] — a small, fully deterministic pseudo-random number
//!   generator (SplitMix64 seeded xoshiro256**). Identical seeds produce
//!   identical simulations on every platform; no wall-clock anywhere.
//! * Statistics: [`Counter`] and [`Histogram`] (latency distributions).
//! * [`IdMap`] / [`IdSet`] — hash tables over the deterministic
//!   [`IdHasher`], for side tables keyed by ids the simulator allocates;
//!   [`SlotIndex`] — dense `id → slot` numbering of a fixed agent set.
//!
//! # Example
//!
//! ```
//! use noc_sim::{Cycle, SimRng, Histogram};
//!
//! let mut rng = SimRng::seed_from(42);
//! let mut lat = Histogram::new("latency");
//! for _ in 0..1000 {
//!     lat.record(rng.gen_range(10..50));
//! }
//! assert!(lat.mean() >= 10.0 && lat.mean() < 50.0);
//! assert_eq!(Cycle(5) + 3, Cycle(8));
//! ```

#![forbid(unsafe_code)]

pub mod clock;
pub mod fuzz;
pub mod idmap;
pub mod rng;
pub mod stats;

pub use clock::Cycle;
pub use fuzz::{SeedMatrix, TrafficPattern};
pub use idmap::{IdHasher, IdMap, IdSet, SlotIndex};
pub use rng::SimRng;
pub use stats::{Counter, Histogram};
