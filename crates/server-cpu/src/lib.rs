//! # noc-server-cpu — the Server-CPU SoC on the bufferless multi-ring NoC
//!
//! Assembles the paper's §4.2 system: compute dies (full rings hosting
//! CPU clusters, home-node LLC slices and DDR controllers), I/O dies
//! (half rings with latency-tolerant devices and Protocol Adapters),
//! RBRG-L2 die-to-die bridges, and optional multi-package scale-up over
//! PA SerDes — all running the AMBA5-CHI-style coherence layer from
//! [`noc_chi`].
//!
//! The [`experiments`] module contains the measurement runners behind
//! the paper's Server-CPU evaluation (Table 5, Figures 10-13, Table 6).

#![forbid(unsafe_code)]

pub mod experiments;
pub mod soc;

pub use soc::{ServerCpu, ServerCpuConfig, ServerCpuMap};
