//! System factories shared by the Server-CPU experiments: this work's
//! multi-ring NoC plus the two commercial-style baselines, all driven
//! through the one [`ChiTransport`] interface by [`NodeId`]. Every
//! system's memory controllers are the one DDR model,
//! [`noc_chi::MemoryParams::ddr4`] (the paper normalizes DDR channel
//! count and frequency across systems), which both [`MemHarness`] and
//! [`CoherentSystem`] build.

use noc_baseline::{BufferedMesh, HubSpoke, MemHarness, MeshConfig, RingAdapter};
use noc_chi::system::ChiTransport;
use noc_chi::{CoherentSystem, LlcParams, SystemSpec};
use noc_core::NodeId;
use noc_server_cpu::experiments::server_interconnect;
use noc_server_cpu::{ServerCpu, ServerCpuConfig};

/// Endpoint partition of a generic system.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Requester endpoints.
    pub requesters: Vec<NodeId>,
    /// Home-node endpoints (coherence experiments only).
    pub home_nodes: Vec<NodeId>,
    /// Memory endpoints.
    pub memories: Vec<NodeId>,
    /// Physical CPU cores represented by one requester endpoint.
    pub cores_per_requester: usize,
}

/// The endpoints `NodeId(ids.start)..NodeId(ids.end)`.
pub(crate) fn nodes(ids: std::ops::Range<u32>) -> Vec<NodeId> {
    ids.map(NodeId).collect()
}

/// This work: the Server-CPU multi-ring NoC as a raw transport, with
/// the given cluster count per compute die.
pub fn ours(clusters_per_ccd: usize) -> (RingAdapter, Partition) {
    let cfg = ServerCpuConfig {
        clusters_per_ccd,
        ..Default::default()
    };
    let (ic, map) = server_interconnect(&cfg).expect("server config builds");
    let part = Partition {
        requesters: map.clusters,
        home_nodes: Vec::new(),
        memories: map.ddrs,
        cores_per_requester: 4,
    };
    (ic, part)
}

/// Intel-like monolithic buffered mesh (Ice-Lake-SP style): a 7×7 mesh
/// hosting 28 cores, 8 home nodes and 8 memory controllers on one die.
pub fn intel_like() -> (BufferedMesh, Partition) {
    let mesh = BufferedMesh::new(MeshConfig { k: 7 });
    // Cores on the first 28 endpoints, HNs next, memories spread last.
    let part = Partition {
        requesters: nodes(0..28),
        home_nodes: nodes(28..36),
        memories: nodes(36..44),
        cores_per_requester: 1,
    };
    (mesh, part)
}

/// AMD-like chiplet hub-and-spoke (Milan style): 8 compute chiplets of
/// 8 cores around a central switched IO die; home nodes and DDR sit on
/// IO-die-attached chiplets, so every memory access crosses the hub.
pub fn amd_like() -> (HubSpoke, Partition) {
    let hub = HubSpoke::new();
    let part = Partition {
        requesters: nodes(0..64),  // chiplets 0..8
        home_nodes: nodes(64..72), // chiplet 8
        memories: nodes(72..80),   // chiplet 9
        cores_per_requester: 1,
    };
    (hub, part)
}

/// The Figure 11 setup over `ic`: the first requester probes, the rest
/// make background noise.
pub fn probe_and_noise<T: ChiTransport>(
    (ic, part): (T, Partition),
) -> (MemHarness<T>, NodeId, Vec<NodeId>) {
    let mut noise = part.requesters;
    let probe = noise.remove(0);
    (MemHarness::new(ic, part.memories), probe, noise)
}

/// Build a CHI coherent system over any transport given a partition.
pub fn coherent<T: ChiTransport>(transport: T, part: &Partition) -> CoherentSystem<T> {
    CoherentSystem::new(
        transport,
        SystemSpec {
            requesters: part.requesters.clone(),
            home_nodes: part.home_nodes.clone(),
            memories: part.memories.clone(),
            llc: LlcParams::default(),
        },
    )
}

/// This work as a full coherent Server-CPU (for Table 5).
pub fn ours_coherent() -> ServerCpu {
    ServerCpu::build(ServerCpuConfig::default()).expect("default server builds")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factories_have_consistent_partitions() {
        let (ic, p) = ours(12);
        assert_eq!(p.requesters.len(), 24);
        assert_eq!(p.memories.len(), 8);
        let devices = ic.network().topology().nodes().len();
        assert!(p
            .requesters
            .iter()
            .chain(&p.memories)
            .all(|e| e.index() < devices));

        let (_, p) = intel_like();
        assert!(p.memories.iter().all(|e| e.index() < 7 * 7));
        assert_eq!(p.requesters.len(), 28);

        let (_, p) = amd_like();
        assert!(p.home_nodes.iter().all(|e| e.index() < 10 * 8));
        assert_eq!(p.requesters.len(), 64);
    }
}
