//! # noc-chi — an AMBA5-CHI-flavoured coherence substrate
//!
//! The paper's architecture teams "stick to the shared memory
//! abstraction" (§3.2) and layer AMBA5-CHI over the bufferless
//! multi-ring NoC. This crate provides that layer for the reproduction:
//!
//! * [`SetAssocCache`] — LRU set-associative cache model (LLC data
//!   slices, L3 tag caches, workload hit/miss modelling);
//! * [`Directory`] — the home node's sharer/owner tracking (the paper's
//!   "L3 tag cache" function);
//! * [`MemoryModel`] — DDR/HBM controller latency+bandwidth model;
//! * [`CoherentSystem`] — requesters, home nodes and memory controllers
//!   exchanging single-flit CHI transactions over a
//!   [`noc_core::Network`], with MESI states, snoops, write-backs and
//!   per-transaction latency accounting.
//!
//! Every NoC transaction is independent and stateless (§3.2.1), matching
//! the paper's premise that makes the bufferless single-flit design
//! viable.

#![forbid(unsafe_code)]

pub mod cache;
pub mod directory;
pub mod drive;
mod lines;
pub mod memory;
pub mod message;
pub mod system;
pub mod txn_transport;
pub mod types;

pub use cache::{Inserted, SetAssocCache};
pub use directory::{DirState, Directory};
pub use memory::{MemoryModel, MemoryParams};
pub use message::{Message, MsgOp};
pub use system::{CoherentSystem, Completion, Incoherence, LlcParams, SystemSpec, TxnKind};
pub use types::{LineAddr, MesiState, ReadKind, TxnId};
