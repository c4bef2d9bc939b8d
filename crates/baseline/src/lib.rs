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
//! * [`RingAdapter`] — a `noc_core` network (the paper's NoC, or a
//!   monolithic single ring) behind a bounded delivery buffer.
//!
//! All three implement [`noc_chi::system::ChiTransport`], the one
//! transport trait: the CHI protocol, [`MemHarness`] and every
//! experiment drive them identically, addressing endpoints by
//! [`noc_core::NodeId`]. On the mesh and the hub, endpoint `i` is
//! `NodeId(i)`.
//!
//! Each design buffers at most `DELIVERY_CAP` (8) deliveries per
//! endpoint: a consumer that stops receiving backs up into the
//! interconnect, which the mesh and hub answer by blocking and the
//! rings by deflecting.

#![forbid(unsafe_code)]

pub mod harness;
pub mod hub;
pub mod mesh;
pub mod ring_adapter;

pub use harness::{MemHarness, MemHarnessReport, RequesterStats};
pub use hub::HubSpoke;
pub use mesh::{BufferedMesh, MeshConfig};
pub use ring_adapter::RingAdapter;

use noc_core::NodeId;
use std::collections::VecDeque;

/// Delivery queue depth per endpoint of every transport here: when the
/// consumer stalls, the mesh's local port and the hub's local ring
/// block (head-of-line blocking propagates upstream — the buffered
/// designs' structural weakness) and the rings deflect.
const DELIVERY_CAP: usize = 8;

/// Per-endpoint delivery buffers of received tokens, indexed by
/// [`NodeId`]; each transport bounds their depth itself.
#[derive(Debug, Clone)]
struct Mailboxes(Vec<VecDeque<u64>>);

impl Mailboxes {
    fn new(endpoints: usize) -> Self {
        Mailboxes(vec![VecDeque::new(); endpoints])
    }

    fn len(&self, endpoint: usize) -> usize {
        self.0[endpoint].len()
    }

    fn push(&mut self, endpoint: usize, token: u64) {
        self.0[endpoint].push_back(token);
    }

    fn recv(&mut self, node: NodeId) -> Option<u64> {
        self.0.get_mut(node.index())?.pop_front()
    }

    /// Exactly the endpoints with a token waiting, ascending.
    fn with_mail(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.0
            .iter()
            .enumerate()
            .filter(|(_, q)| !q.is_empty())
            .map(|(i, _)| NodeId(i as u32))
    }
}
