//! # noc-fabric — physical wire-fabric and floorplan model
//!
//! The paper's §3.3 argues that the right co-design metric for a
//! chiplet-scale NoC is **distance per clock cycle**, and Table 4 gives
//! the two candidate metal fabrics:
//!
//! | Type | Metal | Width | Pitch | Bus | Jump @3GHz | Stride | Over |
//! |---|---|---|---|---|---|---|---|
//! | High-dense | Mx-My | ×1 | ×1 | ×1 | 600 µm | 0 µm | nothing |
//! | High-speed | My | ×3 | ×3.5 | ×2.5 | 1800 µm | 200 µm | SRAM |
//!
//! This crate turns those constants into a parametric model: how far a
//! flit travels per cycle, how many repeaters/pipeline stations a link of
//! a given length needs, how much silicon the wires block, and how much
//! of the blocked area is reclaimed by placing SRAM in the high-speed
//! fabric's stride slots (Figure 6).
//!
//! # Example
//!
//! ```
//! use noc_fabric::{WireFabric, LinkBudget};
//!
//! let hs = WireFabric::high_speed();
//! let hd = WireFabric::high_dense();
//! // At the paper's 3 GHz target the high-speed fabric jumps 3x further.
//! assert_eq!(hs.jump_um(3.0), 3.0 * hd.jump_um(3.0));
//!
//! // A 9 mm chiplet-edge link needs 3x fewer pipeline hops on high-speed wire.
//! let budget_hs = LinkBudget::for_length(&hs, 9_000.0, 3.0);
//! let budget_hd = LinkBudget::for_length(&hd, 9_000.0, 3.0);
//! assert!(budget_hs.cycles < budget_hd.cycles);
//! ```

#![forbid(unsafe_code)]

pub mod choose;
pub mod floorplan;
pub mod wire;

pub use choose::{best_fabric, frequency_sweep, rank_fabrics, ChoiceWeights, ScoredFabric};
pub use floorplan::{FloorplanEstimate, FloorplanSpec};
pub use wire::{LinkBudget, OverlapUse, WireFabric};
