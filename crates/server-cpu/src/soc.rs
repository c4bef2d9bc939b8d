//! The Server-CPU SoC (paper §4.2, Figure 8A): compute dies with full
//! rings hosting CPU clusters, L3/LLC home-node slices and DDR
//! controllers; I/O dies with half rings hosting latency-tolerant
//! devices and the Protocol Adapter; RBRG-L2 bridges between dies and
//! (via PA/SerDes) between packages.

use noc_chi::{CoherentSystem, LlcParams, MemoryParams, SystemSpec};
use noc_core::telemetry::{HealthConfig, RecorderConfig};
use noc_core::{
    BridgeConfig, Network, NetworkConfig, NocDiagnostics, NodeId, RingKind, Topology,
    TopologyBuilder, TopologyError,
};

/// Server-CPU configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerCpuConfig {
    /// Packages in the system (the paper scales to 4P via PA/SerDes).
    pub packages: usize,
    /// Compute dies per package.
    pub ccd_count: usize,
    /// CPU clusters per compute die (each cluster = 4 cores sharing an
    /// L3 tag slice).
    pub clusters_per_ccd: usize,
    /// Home-node (L3-data/LLC + directory) slices per compute die.
    pub hn_per_ccd: usize,
    /// DDR controllers per compute die.
    pub ddr_per_ccd: usize,
    /// I/O dies per package.
    pub iod_count: usize,
    /// Die-to-die bridge latency in cycles (in-package RBRG-L2 PHY).
    pub d2d_latency: u32,
    /// Package-to-package latency in cycles (PA SerDes).
    pub serdes_latency: u32,
    /// DDR controller model.
    pub mem_params: MemoryParams,
    /// Per-slice LLC geometry.
    pub llc: LlcParams,
    /// Network queue/tag parameters.
    pub net: NetworkConfig,
    /// Observatory sampling period in cycles: a metrics snapshot (and
    /// health-watchdog pass) every this many cycles. `0` (the default)
    /// keeps the observatory off.
    pub metrics_period: u64,
    /// Flight-recorder sizing. `Some` (with `metrics_period > 0`)
    /// additionally enables per-flow attribution, bounded history
    /// retention, and watchdog-triggered postmortem bundles; `None`
    /// (the default) keeps the observatory metrics-only.
    pub recorder: Option<RecorderConfig>,
}

impl Default for ServerCpuConfig {
    /// The paper's one-package system: 2 CCDs × 12 clusters × 4 cores =
    /// 96 cores ("nearly one hundred"), 2 I/O dies.
    fn default() -> Self {
        ServerCpuConfig {
            packages: 1,
            ccd_count: 2,
            clusters_per_ccd: 12,
            hn_per_ccd: 4,
            ddr_per_ccd: 4,
            iod_count: 2,
            d2d_latency: 8,
            serdes_latency: 45,
            mem_params: MemoryParams::ddr4(),
            llc: LlcParams::default(),
            net: NetworkConfig::default(),
            metrics_period: 0,
            recorder: None,
        }
    }
}

impl ServerCpuConfig {
    /// Total CPU cores (4 per cluster).
    pub fn cores(&self) -> usize {
        self.packages * self.ccd_count * self.clusters_per_ccd * 4
    }

    /// A scaled-down variant with `clusters` clusters per CCD (the
    /// paper's fair-comparison runs against lower-core-count baselines).
    pub fn scaled_to_clusters(mut self, clusters: usize) -> Self {
        self.clusters_per_ccd = clusters;
        self
    }
}

/// Node map of a built Server-CPU.
#[derive(Debug, Clone)]
pub struct ServerCpuMap {
    /// CPU-cluster requesters, grouped by (package, ccd) in build order.
    pub clusters: Vec<NodeId>,
    /// Home-node slices.
    pub home_nodes: Vec<NodeId>,
    /// DDR controllers.
    pub ddrs: Vec<NodeId>,
    /// I/O-die devices (PCIe, Ethernet, SATA, accelerator), per I/O die.
    pub io_devices: Vec<NodeId>,
    /// Protocol adapters (one per I/O die).
    pub pas: Vec<NodeId>,
    /// Clusters per compute die (for intra/inter-die selection).
    pub clusters_per_ccd: usize,
    /// Compute dies per package.
    pub ccd_count: usize,
}

impl ServerCpuMap {
    /// Clusters belonging to compute die `ccd` (global index across
    /// packages).
    pub fn clusters_of_ccd(&self, ccd: usize) -> &[NodeId] {
        let s = ccd * self.clusters_per_ccd;
        &self.clusters[s..s + self.clusters_per_ccd]
    }
}

/// Build the Server-CPU topology. Returns the topology and its node map.
///
/// # Errors
///
/// Propagates [`TopologyError`] if the configuration is degenerate
/// (zero rings, etc.).
pub fn build_topology(cfg: &ServerCpuConfig) -> Result<(Topology, ServerCpuMap), TopologyError> {
    let mut b = TopologyBuilder::new();
    let mut map = ServerCpuMap {
        clusters: Vec::new(),
        home_nodes: Vec::new(),
        ddrs: Vec::new(),
        io_devices: Vec::new(),
        pas: Vec::new(),
        clusters_per_ccd: cfg.clusters_per_ccd,
        ccd_count: cfg.ccd_count,
    };
    let mut ccd_rings = Vec::new();
    let mut iod_rings = Vec::new();

    for pkg in 0..cfg.packages {
        for c in 0..cfg.ccd_count {
            let die = b.add_chiplet(format!("p{pkg}.ccd{c}"));
            // Port budget: clusters on port 0 of every station; HN and
            // DDR share port 1 of the body; the last three stations are
            // reserved for bridge endpoints (dual CCD↔CCD bridges plus
            // links to both I/O dies).
            let stations = (cfg.clusters_per_ccd.max(cfg.hn_per_ccd + cfg.ddr_per_ccd) + 3) as u16;
            let body = stations - 3;
            let ring = b.add_ring(die, RingKind::Full, stations)?;
            ccd_rings.push(ring);
            for i in 0..cfg.clusters_per_ccd {
                map.clusters
                    .push(b.add_node(format!("p{pkg}.ccd{c}.cl{i}"), ring, i as u16)?);
            }
            // Spread HNs and DDRs around the ring body on port 1.
            let side = cfg.hn_per_ccd + cfg.ddr_per_ccd;
            for i in 0..cfg.hn_per_ccd {
                let st = (i * body as usize / side) as u16;
                map.home_nodes
                    .push(b.add_node(format!("p{pkg}.ccd{c}.hn{i}"), ring, st)?);
            }
            for i in 0..cfg.ddr_per_ccd {
                let st = ((cfg.hn_per_ccd + i) * body as usize / side) as u16;
                map.ddrs
                    .push(b.add_node(format!("p{pkg}.ccd{c}.ddr{i}"), ring, st)?);
            }
        }
        for i in 0..cfg.iod_count {
            let die = b.add_chiplet(format!("p{pkg}.iod{i}"));
            let ring = b.add_ring(die, RingKind::Half, 6)?;
            iod_rings.push(ring);
            for (j, dev) in ["pcie", "eth", "sata", "accel"].iter().enumerate() {
                map.io_devices
                    .push(b.add_node(format!("p{pkg}.iod{i}.{dev}"), ring, j as u16)?);
            }
            map.pas
                .push(b.add_node(format!("p{pkg}.iod{i}.pa"), ring, 4)?);
        }
        // In-package bridges (RBRG-L2 over the parallel die-to-die PHY).
        let d2d = BridgeConfig::l2()
            .with_latency(cfg.d2d_latency)
            .with_width(2);
        let pkg_ccds = &ccd_rings[pkg * cfg.ccd_count..(pkg + 1) * cfg.ccd_count];
        let pkg_iods = &iod_rings[pkg * cfg.iod_count..(pkg + 1) * cfg.iod_count];
        // CCD chain (CCD0↔CCD1↔…): two parallel bridges per pair at the
        // last compute-ring station (the route table load-shares them).
        for w in pkg_ccds.windows(2) {
            let st0 = b.ring_stations(w[0]).expect("ring exists") - 1;
            let st1 = b.ring_stations(w[1]).expect("ring exists") - 1;
            b.add_bridge(d2d.clone(), w[0], st0, w[1], st1)?;
            b.add_bridge(d2d.clone(), w[0], st0, w[1], st1)?;
        }
        // Each CCD to up to two I/O dies.
        for (ci, &ccd) in pkg_ccds.iter().enumerate() {
            let st = b.ring_stations(ccd).expect("ring exists") - 2;
            for k in 0..pkg_iods.len().min(2) {
                let iod = pkg_iods[(ci + k) % pkg_iods.len()];
                b.add_bridge(d2d.clone(), ccd, st, iod, 5)?;
            }
        }
        // I/O-die chain.
        for w in pkg_iods.windows(2) {
            b.add_bridge(d2d.clone(), w[0], 4, w[1], 4)?;
        }
    }
    // Package-to-package scale-up via PA SerDes (ring of packages),
    // bridging I/O die 0 of each neighbouring package pair.
    if cfg.packages > 1 {
        let serdes = BridgeConfig::l2()
            .with_latency(cfg.serdes_latency)
            .with_buffer_cap(16);
        for pkg in 0..cfg.packages {
            let next = (pkg + 1) % cfg.packages;
            if cfg.packages == 2 && pkg == 1 {
                break; // avoid a duplicate second link for 2P
            }
            let a = iod_rings[pkg * cfg.iod_count];
            let z = iod_rings[next * cfg.iod_count];
            b.add_bridge(serdes.clone(), a, 3, z, 2)?;
        }
    }
    Ok((b.build()?, map))
}

/// A fully assembled, coherent Server-CPU system.
#[derive(Debug)]
pub struct ServerCpu {
    /// The coherent protocol engine over the multi-ring NoC.
    pub sys: CoherentSystem<Network>,
    /// Node map.
    pub map: ServerCpuMap,
    /// The configuration it was built from.
    pub cfg: ServerCpuConfig,
}

impl ServerCpu {
    /// Build the default one-package, 96-core system.
    ///
    /// # Errors
    ///
    /// Propagates topology errors from degenerate configurations.
    pub fn build(cfg: ServerCpuConfig) -> Result<Self, TopologyError> {
        let (topo, map) = build_topology(&cfg)?;
        let mut net = Network::new(topo, cfg.net.clone());
        if cfg.metrics_period > 0 {
            match &cfg.recorder {
                Some(rec) => net.enable_flight_recorder(
                    cfg.metrics_period,
                    HealthConfig::default(),
                    rec.clone(),
                ),
                None => net.enable_metrics(cfg.metrics_period),
            }
        }
        let sys = CoherentSystem::new(
            net,
            SystemSpec {
                requesters: map.clusters.clone(),
                home_nodes: map.home_nodes.clone(),
                memories: map.ddrs.clone(),
                mem_params: cfg.mem_params,
                llc: cfg.llc,
                line_bytes: 64,
                local_hit_latency: 10,
                hn_latency: 12,
                snoop_latency: 6,
            },
        );
        Ok(ServerCpu { sys, map, cfg })
    }
}

/// Heatmap diagnostics (deflections, I-tag placements) via the shared
/// [`NocDiagnostics`] surface — the same accessors the AI-Processor
/// harness exposes, so tooling can treat both SoCs uniformly.
impl NocDiagnostics for ServerCpu {
    fn noc(&self) -> &Network {
        self.sys.network()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_chi::{LineAddr, ReadKind};

    #[test]
    fn default_system_has_96_cores() {
        let cfg = ServerCpuConfig::default();
        assert_eq!(cfg.cores(), 96);
        let s = ServerCpu::build(cfg).expect("builds");
        assert_eq!(s.map.clusters.len(), 24);
        assert_eq!(s.map.home_nodes.len(), 8);
        assert_eq!(s.map.ddrs.len(), 8);
        assert_eq!(s.map.pas.len(), 2);
    }

    #[test]
    fn four_package_system_scales_past_300_cores() {
        let cfg = ServerCpuConfig {
            packages: 4,
            ..Default::default()
        };
        assert_eq!(cfg.cores(), 384);
        let s = ServerCpu::build(cfg).expect("4P builds");
        assert_eq!(s.map.clusters.len(), 96);
    }

    #[test]
    fn intra_ccd_read_completes() {
        let mut s = ServerCpu::build(ServerCpuConfig::default()).unwrap();
        let rn = s.map.clusters[0];
        let t = s.sys.read(rn, LineAddr(0x1000), ReadKind::Shared);
        let c = s.sys.run_until_complete(t, 20_000).expect("completes");
        assert!(c.latency() > 0);
    }

    #[test]
    fn cross_ccd_coherence_works() {
        let mut s = ServerCpu::build(ServerCpuConfig::default()).unwrap();
        let rn0 = s.map.clusters_of_ccd(0)[0];
        let rn1 = s.map.clusters_of_ccd(1)[0];
        let a = LineAddr(0x2000);
        let t = s.sys.write(rn0, a);
        s.sys.run_until_complete(t, 50_000).expect("write");
        let t = s.sys.read(rn1, a, ReadKind::Shared);
        let c = s.sys.run_until_complete(t, 50_000).expect("cross-die read");
        assert!(c.latency() > 0);
        assert!(s.sys.rn_state(rn0, a).readable());
        assert!(s.sys.rn_state(rn1, a).readable());
    }

    #[test]
    fn cross_package_coherence_works() {
        let mut s = ServerCpu::build(ServerCpuConfig {
            packages: 2,
            clusters_per_ccd: 4,
            ..Default::default()
        })
        .unwrap();
        let per_pkg = 2 * 4; // ccd_count × clusters_per_ccd
        let rn0 = s.map.clusters[0];
        let rn1 = s.map.clusters[per_pkg]; // first cluster of package 1
        let a = LineAddr(0x3000);
        let t = s.sys.write(rn0, a);
        s.sys.run_until_complete(t, 100_000).expect("write");
        let t = s.sys.read(rn1, a, ReadKind::Shared);
        let c = s
            .sys
            .run_until_complete(t, 100_000)
            .expect("cross-package read");
        assert!(c.latency() > 0);
    }

    #[test]
    fn heatmaps_render_one_row_per_ring() {
        let mut s = ServerCpu::build(ServerCpuConfig::default()).unwrap();
        // Generate some traffic so the cells are not all zero.
        let rn0 = s.map.clusters_of_ccd(0)[0];
        let rn1 = s.map.clusters_of_ccd(1)[0];
        let a = LineAddr(0x4000);
        let t = s.sys.write(rn0, a);
        s.sys.run_until_complete(t, 50_000).expect("write");
        let t = s.sys.read(rn1, a, ReadKind::Shared);
        s.sys.run_until_complete(t, 50_000).expect("read");
        let rings = s.noc().topology().rings().len();
        for art in [s.deflection_heatmap(), s.itag_heatmap()] {
            // title + station header + one row per ring
            assert_eq!(art.lines().count(), 2 + rings, "{art}");
        }
        assert!(s.deflection_heatmap().starts_with("deflections"));
        assert!(s.itag_heatmap().starts_with("i-tags"));
    }

    #[test]
    fn scaled_down_variant_builds() {
        let cfg = ServerCpuConfig::default().scaled_to_clusters(7); // 56 cores
        assert_eq!(cfg.cores(), 56);
        assert!(ServerCpu::build(cfg).is_ok());
    }
}
