//! # noc-core — a bufferless multi-ring NoC for heterogeneous chiplets
//!
//! This crate implements the network-on-chip described in *"Application
//! Defined On-chip Networks for Heterogeneous Chiplets: An Implementation
//! Perspective"* (HPCA 2022): a bufferless, deflection-routed multi-ring
//! interconnect with
//!
//! * **cross stations** hosting up to two node interfaces each, with
//!   on-the-fly-flit priority and round-robin injection arbitration;
//! * **I-tags** that reserve a passing slot for a starving injector
//!   (starvation freedom);
//! * **E-tags** that reserve the next freed eject buffer for a deflected
//!   flit (livelock freedom, at most one extra lap);
//! * **half/full rings** (uni-/bidirectional lanes);
//! * **RBRG-L1** intra-die ring bridges and **RBRG-L2** inter-die bridges
//!   over a die-to-die PHY;
//! * the **SWAP** deadlock-resolution mechanism of §4.4.
//!
//! # Quickstart
//!
//! ```
//! use noc_core::{BridgeConfig, FlitClass, Network, NetworkConfig,
//!                RingKind, TopologyBuilder};
//!
//! // Two chiplets, one full ring each, joined by an RBRG-L2.
//! let mut b = TopologyBuilder::new();
//! let die0 = b.add_chiplet("compute");
//! let die1 = b.add_chiplet("io");
//! let r0 = b.add_ring(die0, RingKind::Full, 8)?;
//! let r1 = b.add_ring(die1, RingKind::Half, 6)?;
//! let cpu = b.add_node("cpu", r0, 0)?;
//! let nic = b.add_node("nic", r1, 2)?;
//! b.add_bridge(BridgeConfig::l2(), r0, 4, r1, 0)?;
//!
//! let mut net = Network::new(b.build()?, NetworkConfig::default());
//! net.enqueue(cpu, nic, FlitClass::Request, 64, 7).unwrap();
//! while net.in_flight() > 0 {
//!     net.tick();
//! }
//! let got = net.pop_delivered(nic).unwrap();
//! assert_eq!(got.token, 7);
//! assert_eq!(got.ring_changes, 1);
//! # Ok::<(), noc_core::TopologyError>(())
//! ```

#![forbid(unsafe_code)]

pub mod bits;
mod bridge;
pub mod config;
pub mod diag;
pub mod drive;
mod epoch;
pub mod error;
pub mod exec;
pub mod flit;
pub mod ids;
pub mod network;
mod observe;
pub mod queue;
pub mod render;
pub mod ring;
pub mod route;
mod shard;
mod slab;
pub mod spec;
pub mod stall;
pub mod stats;
pub mod topogen;
pub mod topology;

/// Flit-lifecycle tracing and the observatory (re-exported
/// [`noc_telemetry`]): sinks for
/// [`Network::with_sink`](network::Network::with_sink), the Chrome trace
/// exporter, metrics snapshots and postmortem bundles. Latency, heatmap
/// and occupancy numbers come from the engine itself
/// ([`Network::stats`](network::Network::stats),
/// [`Network::deflection_cells`](network::Network::deflection_cells),
/// [`Network::ring_occupancy`](network::Network::ring_occupancy)).
pub use noc_telemetry as telemetry;

pub use bits::BitRing;
pub use config::{BridgeConfig, BridgeLevel, NetworkConfig};
pub use diag::NocDiagnostics;
pub use error::{EngineError, EnqueueError, TopologyError};
pub use exec::{ExecMode, TickMode};
pub use flit::{Flit, FlitClass, PacketToken};
pub use ids::{BridgeId, ChipletId, Direction, NodeId, Port, RingId, RingKind};
pub use network::Network;
pub use route::RouteTable;
pub use spec::{SocSpec, SpecError};
pub use stall::StallReport;
pub use stats::{NetStats, TickProfile};
pub use topogen::{GridParams, HierRingParams, TopoGenError};
pub use topology::{NodeKind, Topology, TopologyBuilder};
