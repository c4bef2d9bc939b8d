//! The Server-CPU SoC (paper §4.2, Figure 8A): compute dies with full
//! rings hosting CPU clusters, L3/LLC home-node slices and DDR
//! controllers; I/O dies with half rings hosting latency-tolerant
//! devices and the Protocol Adapter; RBRG-L2 bridges between dies and
//! (via PA/SerDes) between packages.

use noc_chi::{CoherentSystem, LlcParams, SystemSpec};
use noc_core::spec::{BridgeDef, ChipletDef, DeviceDef, EndpointRef, RingDef};
use noc_core::{
    BridgeLevel, Network, NetworkConfig, NocDiagnostics, NodeId, RingKind, SocSpec, SpecError,
};

/// Compute dies per package (§4.2, Figure 8A).
pub const CCD_COUNT: usize = 2;
/// I/O dies per package (§4.2, Figure 8A).
pub const IOD_COUNT: usize = 2;
/// Die-to-die bridge latency in cycles (in-package RBRG-L2 PHY).
const D2D_LATENCY: u32 = 8;
/// Package-to-package latency in cycles (PA SerDes).
const SERDES_LATENCY: u32 = 45;

/// Server-CPU configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerCpuConfig {
    /// Packages in the system (the paper scales to 4P via PA/SerDes).
    pub packages: usize,
    /// CPU clusters per compute die (each cluster = 4 cores sharing an
    /// L3 tag slice).
    pub clusters_per_ccd: usize,
    /// Home-node (L3-data/LLC + directory) slices per compute die.
    pub hn_per_ccd: usize,
    /// DDR controllers per compute die.
    pub ddr_per_ccd: usize,
}

impl Default for ServerCpuConfig {
    /// The paper's one-package system: 2 CCDs × 12 clusters × 4 cores =
    /// 96 cores ("nearly one hundred"), 2 I/O dies.
    fn default() -> Self {
        ServerCpuConfig {
            packages: 1,
            clusters_per_ccd: 12,
            hn_per_ccd: 4,
            ddr_per_ccd: 4,
        }
    }
}

impl ServerCpuConfig {
    /// Total CPU cores (4 per cluster).
    pub fn cores(&self) -> usize {
        self.packages * CCD_COUNT * self.clusters_per_ccd * 4
    }

    /// A scaled-down variant with `clusters` clusters per CCD (the
    /// paper's fair-comparison runs against lower-core-count baselines).
    pub fn scaled_to_clusters(mut self, clusters: usize) -> Self {
        self.clusters_per_ccd = clusters;
        self
    }

    /// The SoC as a [`SocSpec`], plus the node map its compile yields
    /// ([`SocSpec::compile`] numbers devices in declaration order, so
    /// each id is recorded as its device is declared). Every package's
    /// dies come first, then its bridges, package by package, then the
    /// package-to-package SerDes links.
    pub fn spec(&self) -> (SocSpec, ServerCpuMap) {
        let mut map = ServerCpuMap {
            clusters_per_ccd: self.clusters_per_ccd,
            ..Default::default()
        };
        let mut next = 0;
        let mut dev = |devices: &mut Vec<DeviceDef>, ids: &mut Vec<NodeId>, name, station| {
            ids.push(NodeId(next));
            next += 1;
            devices.push(DeviceDef {
                name,
                station: station as u16,
            });
        };
        let die = |name: String, kind, stations: usize, devices| ChipletDef {
            name,
            rings: vec![RingDef {
                kind,
                stations: stations as u16,
                devices,
            }],
        };
        // Port budget: clusters on port 0 of every station; HN and DDR
        // share port 1 of the body, spread evenly around it; the last
        // three stations are reserved for bridge endpoints (dual
        // CCD↔CCD bridges plus links to both I/O dies).
        let side = self.hn_per_ccd + self.ddr_per_ccd;
        let stations = self.clusters_per_ccd.max(side) + 3;
        let body = stations - 3;
        let mut chiplets = Vec::new();
        for pkg in 0..self.packages {
            for c in 0..CCD_COUNT {
                let (p, mut devices) = (format!("p{pkg}.ccd{c}"), Vec::new());
                for i in 0..self.clusters_per_ccd {
                    dev(&mut devices, &mut map.clusters, format!("{p}.cl{i}"), i);
                }
                for i in 0..self.hn_per_ccd {
                    let st = i * body / side;
                    dev(&mut devices, &mut map.home_nodes, format!("{p}.hn{i}"), st);
                }
                for i in 0..self.ddr_per_ccd {
                    let st = (self.hn_per_ccd + i) * body / side;
                    dev(&mut devices, &mut map.ddrs, format!("{p}.ddr{i}"), st);
                }
                chiplets.push(die(p, RingKind::Full, stations, devices));
            }
            for i in 0..IOD_COUNT {
                let (p, mut devices) = (format!("p{pkg}.iod{i}"), Vec::new());
                for (j, d) in ["pcie", "eth", "sata", "accel"].iter().enumerate() {
                    dev(&mut devices, &mut map.io_devices, format!("{p}.{d}"), j);
                }
                dev(&mut devices, &mut map.pas, format!("{p}.pa"), 4);
                chiplets.push(die(p, RingKind::Half, 6, devices));
            }
        }

        let at = |chiplet: String, station: usize| EndpointRef {
            chiplet,
            ring: 0,
            station: station as u16,
        };
        let ccd = |pkg: usize, c: usize, station| at(format!("p{pkg}.ccd{c}"), station);
        let iod = |pkg: usize, i: usize, station| at(format!("p{pkg}.iod{i}"), station);
        // In-package bridges (RBRG-L2 over the parallel die-to-die PHY).
        let d2d = |a, b| BridgeDef {
            latency: Some(D2D_LATENCY),
            ..BridgeDef::new(BridgeLevel::L2, a, b)
        };
        let mut bridges = Vec::new();
        for pkg in 0..self.packages {
            // CCD chain (CCD0↔CCD1↔…): two parallel bridges per pair at
            // the last compute-ring station (the route table load-shares
            // them).
            for c in 1..CCD_COUNT {
                for _ in 0..2 {
                    bridges.push(d2d(
                        ccd(pkg, c - 1, stations - 1),
                        ccd(pkg, c, stations - 1),
                    ));
                }
            }
            // Each CCD to up to two I/O dies.
            for c in 0..CCD_COUNT {
                for k in 0..IOD_COUNT.min(2) {
                    let i = (c + k) % IOD_COUNT;
                    bridges.push(d2d(ccd(pkg, c, stations - 2), iod(pkg, i, 5)));
                }
            }
            // I/O-die chain.
            for i in 1..IOD_COUNT {
                bridges.push(d2d(iod(pkg, i - 1, 4), iod(pkg, i, 4)));
            }
        }
        // Package-to-package scale-up via PA SerDes (a ring of packages;
        // 2P has one link), bridging I/O die 0 of each neighbouring pair.
        let links = match self.packages {
            0 | 1 => 0,
            2 => 1,
            n => n,
        };
        for pkg in 0..links {
            let (a, b) = (iod(pkg, 0, 3), iod((pkg + 1) % self.packages, 0, 2));
            bridges.push(BridgeDef {
                latency: Some(SERDES_LATENCY),
                buffer_cap: Some(16),
                ..BridgeDef::new(BridgeLevel::L2, a, b)
            });
        }
        let spec = SocSpec {
            name: "server-cpu".into(),
            chiplets,
            bridges,
            network: NetworkConfig::default(),
        };
        (spec, map)
    }
}

/// Node map of a built Server-CPU.
#[derive(Debug, Clone, Default)]
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
}

impl ServerCpuMap {
    /// Clusters belonging to compute die `ccd` (global index across
    /// packages).
    pub fn clusters_of_ccd(&self, ccd: usize) -> &[NodeId] {
        let s = ccd * self.clusters_per_ccd;
        &self.clusters[s..s + self.clusters_per_ccd]
    }
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
    /// Build the system `cfg` describes: [`ServerCpuConfig::spec`],
    /// then [`ServerCpu::over`].
    ///
    /// # Errors
    ///
    /// Returns the [`SpecError`] of a degenerate configuration's spec.
    pub fn build(cfg: ServerCpuConfig) -> Result<Self, SpecError> {
        let (spec, map) = cfg.spec();
        let (net, _) = spec.build()?;
        Ok(ServerCpu::over(net, map, cfg))
    }

    /// Wire the coherent system onto `net`, the network built from
    /// `cfg.spec()` with its node map `map`. A caller that observes the
    /// system switches the observatory on at `net` before handing it in.
    pub fn over(net: Network, map: ServerCpuMap, cfg: ServerCpuConfig) -> Self {
        let sys = CoherentSystem::new(
            net,
            SystemSpec {
                requesters: map.clusters.clone(),
                home_nodes: map.home_nodes.clone(),
                memories: map.ddrs.clone(),
                llc: LlcParams::default(),
            },
        );
        ServerCpu { sys, map, cfg }
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

    /// `specs/server_cpu.json` is the default config's spec, byte for byte
    /// (`NOC_WRITE_SPECS=1` rewrites it after a deliberate change).
    #[test]
    fn committed_spec_is_what_the_default_config_emits() {
        let json = ServerCpuConfig::default().spec().0.to_json().unwrap() + "\n";
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/server_cpu.json");
        if std::env::var_os("NOC_WRITE_SPECS").is_some() {
            std::fs::write(path, &json).unwrap();
        }
        let committed = std::fs::read_to_string(path).unwrap();
        assert!(
            json == committed,
            "{path} is stale (NOC_WRITE_SPECS=1 rewrites it)"
        );
        assert_eq!(
            SocSpec::from_json(&committed).unwrap(),
            ServerCpuConfig::default().spec().0
        );
    }
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
        let per_pkg = CCD_COUNT * 4; // × clusters_per_ccd
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
