//! # noc-baseline — comparison interconnects
//!
//! The paper compares its bufferless multi-ring NoC against
//! commercial designs (Table 9, §5.3). This crate implements
//! structurally faithful stand-ins:
//!
//! * [`BufferedMesh`] — a monolithic input-buffered XY mesh
//!   (Intel Ice-Lake-SP style);
//! * [`HubSpoke`] — chiplets with local rings around a central switched
//!   IO die (AMD Milan style);
//! * [`RingAdapter`] — adapters exposing `noc_core` networks (the
//!   paper's NoC and a monolithic single ring) through the same
//!   [`Interconnect`] trait, so experiment harnesses drive all designs
//!   identically.

#![forbid(unsafe_code)]

pub mod harness;
pub mod hub;
pub mod mesh;
pub mod ring_adapter;
pub mod traits;
pub mod transport;

pub use harness::{MemHarness, MemHarnessConfig, MemHarnessReport, RequesterStats};
pub use hub::{HubConfig, HubSpoke};
pub use mesh::{BufferedMesh, MeshConfig};
pub use ring_adapter::RingAdapter;
pub use traits::{Delivered, Interconnect};
