//! [`ChiTransport`] implementations, letting the full CHI protocol run
//! over the baseline interconnects for apples-to-apples coherence
//! latency comparisons (paper Table 5).
//!
//! Convention: `NodeId(i)` maps to endpoint index `i`.

use crate::hub::HubSpoke;
use crate::mesh::BufferedMesh;
use crate::ring_adapter::RingAdapter;
use crate::traits::Interconnect;
use noc_chi::system::ChiTransport;
use noc_core::{FlitClass, NodeId};
use noc_sim::Cycle;

macro_rules! impl_transport {
    ($ty:ty) => {
        impl ChiTransport for $ty {
            fn offer(
                &mut self,
                src: NodeId,
                dst: NodeId,
                class: FlitClass,
                bytes: u32,
                token: u64,
            ) -> bool {
                Interconnect::offer(self, src.index(), dst.index(), class, bytes, token)
            }

            fn tick(&mut self) {
                Interconnect::tick(self);
            }

            fn now(&self) -> Cycle {
                Cycle(Interconnect::now(self))
            }

            fn recv(&mut self, node: NodeId) -> Option<u64> {
                self.pop_delivered(node.index()).map(|d| d.token)
            }

            /// Every endpoint: a superset, which the contract allows.
            fn nodes_with_mail(&self) -> impl Iterator<Item = NodeId> + '_ {
                (0..Interconnect::endpoints(self)).map(|i| NodeId(i as u32))
            }
        }
    };
}

impl_transport!(BufferedMesh);
impl_transport!(HubSpoke);
impl_transport!(RingAdapter);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::MeshConfig;
    use noc_chi::{
        CoherentSystem, LineAddr, LlcParams, MemoryParams, MesiState, ReadKind, SystemSpec,
    };

    #[test]
    fn chi_protocol_runs_over_buffered_mesh() {
        let mesh = BufferedMesh::new(MeshConfig {
            k: 3,
            ..Default::default()
        });
        // Endpoints 0..9: 4 requesters, 3 home nodes, 2 memories.
        let mut sys = CoherentSystem::new(
            mesh,
            SystemSpec {
                requesters: (0..4).map(NodeId).collect(),
                home_nodes: (4..7).map(NodeId).collect(),
                memories: (7..9).map(NodeId).collect(),
                mem_params: MemoryParams::ddr4(),
                llc: LlcParams::default(),
                line_bytes: 64,
                local_hit_latency: 10,
                hn_latency: 12,
                snoop_latency: 6,
            },
        );
        let a = LineAddr(0x42);
        let t = sys.write(NodeId(0), a);
        sys.run_until_complete(t, 10_000).expect("write completes");
        assert_eq!(sys.rn_state(NodeId(0), a), MesiState::Modified);
        let t = sys.read(NodeId(1), a, ReadKind::Shared);
        sys.run_until_complete(t, 10_000).expect("snooped read");
        assert_eq!(sys.rn_state(NodeId(0), a), MesiState::Shared);
        assert_eq!(sys.rn_state(NodeId(1), a), MesiState::Shared);
    }

    #[test]
    fn chi_protocol_runs_over_hub_spoke() {
        let hub = HubSpoke::new(crate::hub::HubConfig {
            chiplets: 2,
            per_chiplet: 4,
            ..Default::default()
        });
        let mut sys = CoherentSystem::new(
            hub,
            SystemSpec {
                requesters: vec![NodeId(0), NodeId(4)],
                home_nodes: vec![NodeId(1), NodeId(5)],
                memories: vec![NodeId(2), NodeId(6)],
                mem_params: MemoryParams::ddr4(),
                llc: LlcParams::default(),
                line_bytes: 64,
                local_hit_latency: 10,
                hn_latency: 12,
                snoop_latency: 6,
            },
        );
        let a = LineAddr(7);
        let t = sys.read(NodeId(0), a, ReadKind::Shared);
        let c = sys.run_until_complete(t, 20_000).expect("completes");
        assert!(c.latency() > 0);
    }
}
