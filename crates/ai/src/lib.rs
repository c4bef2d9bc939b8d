//! # noc-ai — the AI-Processor SoC on the bufferless multi-ring NoC
//!
//! Assembles the paper's §4.3 training processor: AI cores on vertical
//! rings, the memory system (interleaved L2 slices, LLC directory, HBM
//! stacks, system DMA) on horizontal rings, RBRG-L1 bridges at every
//! intersection, X-Y/Y-X routing with at most one ring change.
//!
//! [`AiEngine`] drives the Table 7 read/write-ratio bandwidth sweeps and
//! the Figure 14 equilibrium measurements.

#![forbid(unsafe_code)]

pub mod soc;
pub mod traffic;

pub use soc::{AiConfig, AiMap, AiProcessor};
pub use traffic::{AiBandwidthReport, AiEngine, AiTraffic};
