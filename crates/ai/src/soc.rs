//! The AI-Processor SoC (paper §4.3, Figure 8B): AI cores on vertical
//! rings, the memory system (L2 slices, LLC, HBM, DMA) on horizontal
//! rings, RBRG-L1 bridges at every intersection. Any core↔memory route
//! takes at most one ring change (X-Y/Y-X routing).

use noc_core::telemetry::{HealthConfig, RecorderConfig};
use noc_core::{
    BridgeConfig, Network, NetworkConfig, NocDiagnostics, NodeId, RingId, RingKind, Topology,
    TopologyBuilder, TopologyError,
};

/// AI-Processor configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AiConfig {
    /// Vertical rings (columns of AI cores).
    pub v_rings: usize,
    /// AI cores per vertical ring.
    pub cores_per_vring: usize,
    /// Horizontal rings (memory system).
    pub h_rings: usize,
    /// L2 slices per horizontal ring.
    pub l2_per_hring: usize,
    /// HBM stacks (paper: 6 × 500 GB/s), distributed over the
    /// horizontal rings.
    pub hbm_count: usize,
    /// System-DMA engines.
    pub dma_count: usize,
    /// LLC directory slices.
    pub llc_count: usize,
    /// RBRG-L1 traversal latency.
    pub bridge_latency: u32,
    /// Data payload of one NoC transaction (the L2 access granule).
    pub line_bytes: u32,
    /// NoC clock in GHz (for TB/s conversion).
    pub clock_ghz: f64,
    /// Network parameters.
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

impl Default for AiConfig {
    /// The paper-scale training processor: 64 AI cores on 8 vertical
    /// rings, 48 L2 slices on 6 horizontal rings, 6 HBM stacks, 2 GHz.
    fn default() -> Self {
        AiConfig {
            v_rings: 8,
            cores_per_vring: 8,
            h_rings: 6,
            l2_per_hring: 8,
            hbm_count: 6,
            dma_count: 6,
            llc_count: 6,
            bridge_latency: 2,
            line_bytes: 512,
            clock_ghz: 2.0,
            net: NetworkConfig {
                inject_queue_cap: 16,
                eject_queue_cap: 16,
                ..NetworkConfig::default()
            },
            metrics_period: 0,
            recorder: None,
        }
    }
}

impl AiConfig {
    /// Total AI cores.
    pub fn cores(&self) -> usize {
        self.v_rings * self.cores_per_vring
    }

    /// Total L2 slices.
    pub fn l2s(&self) -> usize {
        self.h_rings * self.l2_per_hring
    }

    /// Convert bytes/cycle into TB/s at the configured clock.
    pub fn tbs(&self, bytes_per_cycle: f64) -> f64 {
        bytes_per_cycle * self.clock_ghz * 1e9 / 1e12
    }
}

/// Node map of a built AI processor.
#[derive(Debug, Clone)]
pub struct AiMap {
    /// AI cores, grouped by vertical ring.
    pub cores: Vec<NodeId>,
    /// L2 slices, grouped by horizontal ring.
    pub l2s: Vec<NodeId>,
    /// HBM stacks.
    pub hbms: Vec<NodeId>,
    /// DMA engines.
    pub dmas: Vec<NodeId>,
    /// LLC directory slices.
    pub llcs: Vec<NodeId>,
    /// Horizontal ring index of each L2 slice.
    pub l2_ring: Vec<usize>,
    /// Horizontal ring index of each HBM stack.
    pub hbm_ring: Vec<usize>,
    /// Horizontal ring index of each LLC directory slice.
    pub llc_ring: Vec<usize>,
}

impl AiMap {
    /// L2 slices that share a horizontal ring with HBM `h` (the local
    /// DMA partners — one ring change at most, per §4.3).
    pub fn l2s_on_ring_of_hbm(&self, h: usize) -> Vec<NodeId> {
        self.l2s_on_ring(self.hbm_ring[h])
    }

    /// L2 slices that share a horizontal ring with LLC slice `i` (the
    /// directory's local data slices — Fig. 8B keeps the LLC→L2 leg on
    /// one ring so no route exceeds one ring change).
    pub fn l2s_on_ring_of_llc(&self, i: usize) -> Vec<NodeId> {
        self.l2s_on_ring(self.llc_ring[i])
    }

    fn l2s_on_ring(&self, ring: usize) -> Vec<NodeId> {
        self.l2s
            .iter()
            .zip(&self.l2_ring)
            .filter(|&(_, &r)| r == ring)
            .map(|(&n, _)| n)
            .collect()
    }
}

/// Build the AI-Processor topology.
///
/// # Errors
///
/// Propagates [`TopologyError`] on degenerate configurations.
pub fn build_topology(cfg: &AiConfig) -> Result<(Topology, AiMap), TopologyError> {
    let mut b = TopologyBuilder::new();
    let die = b.add_chiplet("ai-die");
    let mut map = AiMap {
        cores: Vec::new(),
        l2s: Vec::new(),
        hbms: Vec::new(),
        dmas: Vec::new(),
        llcs: Vec::new(),
        l2_ring: Vec::new(),
        hbm_ring: Vec::new(),
        llc_ring: Vec::new(),
    };

    // Balanced layout (§4.3: "the balanced layout of a large number of
    // devices ... is the key"): devices occupy station port 0; bridge
    // endpoints are interleaved around the ring on port 1, so average
    // device↔bridge distance is minimal and both station interfaces are
    // used.
    let mut vrings: Vec<RingId> = Vec::new();
    // Station (on the vertical ring v) of the bridge toward hring h.
    let mut v_bridge_station: Vec<Vec<u16>> = Vec::new();
    for v in 0..cfg.v_rings {
        let stations = cfg.cores_per_vring.max(cfg.h_rings) as u16;
        let ring = b.add_ring(die, RingKind::Full, stations)?;
        vrings.push(ring);
        for i in 0..cfg.cores_per_vring {
            map.cores
                .push(b.add_node(format!("core{v}_{i}"), ring, i as u16)?);
        }
        v_bridge_station.push(
            (0..cfg.h_rings)
                .map(|h| (h * stations as usize / cfg.h_rings) as u16)
                .collect(),
        );
    }

    // Horizontal rings: L2 slices plus this ring's share of HBM/DMA/LLC
    // on port 0; one bridge endpoint per vertical ring spread on port 1.
    let mut hrings: Vec<RingId> = Vec::new();
    let mut h_bridge_station: Vec<Vec<u16>> = Vec::new();
    let mem_share =
        |count: usize, h: usize| -> usize { (0..count).filter(|i| i % cfg.h_rings == h).count() };
    for h in 0..cfg.h_rings {
        let shares =
            mem_share(cfg.hbm_count, h) + mem_share(cfg.dma_count, h) + mem_share(cfg.llc_count, h);
        let devices = cfg.l2_per_hring + shares;
        let stations = devices.max(cfg.v_rings) as u16;
        let ring = b.add_ring(die, RingKind::Full, stations)?;
        hrings.push(ring);
        let mut st = 0u16;
        for i in 0..cfg.l2_per_hring {
            map.l2s.push(b.add_node(format!("l2_{h}_{i}"), ring, st)?);
            map.l2_ring.push(h);
            st += 1;
        }
        for i in 0..cfg.hbm_count {
            if i % cfg.h_rings == h {
                map.hbms.push(b.add_node(format!("hbm{i}"), ring, st)?);
                map.hbm_ring.push(h);
                st += 1;
            }
        }
        for i in 0..cfg.dma_count {
            if i % cfg.h_rings == h {
                map.dmas.push(b.add_node(format!("dma{i}"), ring, st)?);
                st += 1;
            }
        }
        for i in 0..cfg.llc_count {
            if i % cfg.h_rings == h {
                map.llcs.push(b.add_node(format!("llc{i}"), ring, st)?);
                map.llc_ring.push(h);
                st += 1;
            }
        }
        h_bridge_station.push(
            (0..cfg.v_rings)
                .map(|v| (v * stations as usize / cfg.v_rings) as u16)
                .collect(),
        );
    }

    // RBRG-L1 at every (vertical, horizontal) intersection.
    // The paper's RBRG-L1 provides "data buffering for the flits that
    // need to exchange a ring path" — deep enough to absorb a full burst
    // from one vertical ring's cores.
    let l1 = BridgeConfig::l1()
        .with_latency(cfg.bridge_latency)
        .with_width(4)
        .with_buffer_cap(32);
    for (v, &vr) in vrings.iter().enumerate() {
        for (h, &hr) in hrings.iter().enumerate() {
            b.add_bridge(
                l1.clone(),
                vr,
                v_bridge_station[v][h],
                hr,
                h_bridge_station[h][v],
            )?;
        }
    }

    Ok((b.build()?, map))
}

/// A built AI processor: network plus node map.
#[derive(Debug)]
pub struct AiProcessor {
    /// The multi-ring NoC.
    pub net: Network,
    /// Node map.
    pub map: AiMap,
    /// Build configuration.
    pub cfg: AiConfig,
}

impl AiProcessor {
    /// Build the processor.
    ///
    /// # Errors
    ///
    /// Propagates topology errors.
    pub fn build(cfg: AiConfig) -> Result<Self, TopologyError> {
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
        Ok(AiProcessor { net, map, cfg })
    }
}

/// Heatmap diagnostics (deflections, I-tag placements) come from the
/// shared [`NocDiagnostics`] surface — hot cells point at
/// oversubscribed L2/HBM eject ports and starving injectors.
impl NocDiagnostics for AiProcessor {
    fn noc(&self) -> &Network {
        &self.net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_core::FlitClass;

    #[test]
    fn default_build_is_paper_scale() {
        let p = AiProcessor::build(AiConfig::default()).expect("builds");
        assert_eq!(p.map.cores.len(), 64);
        assert_eq!(p.map.l2s.len(), 48);
        assert_eq!(p.map.hbms.len(), 6);
        assert_eq!(p.map.dmas.len(), 6);
        assert_eq!(p.map.llcs.len(), 6);
    }

    #[test]
    fn heatmaps_render_one_row_per_ring() {
        let p = AiProcessor::build(AiConfig::default()).expect("builds");
        let rings = p.net.topology().rings().len();
        for art in [p.deflection_heatmap(), p.itag_heatmap()] {
            // title + station header + one row per ring
            assert_eq!(art.lines().count(), 2 + rings, "{art}");
        }
        assert!(p.deflection_heatmap().starts_with("deflections (max 0)"));
    }

    #[test]
    fn core_to_l2_takes_one_ring_change() {
        let mut p = AiProcessor::build(AiConfig::default()).unwrap();
        let core = p.map.cores[0];
        let l2 = p.map.l2s[17];
        p.net.enqueue(core, l2, FlitClass::Request, 16, 0).unwrap();
        for _ in 0..200 {
            p.net.tick();
        }
        let f = p.net.pop_delivered(l2).expect("arrived");
        assert_eq!(f.ring_changes, 1, "X-Y routing: exactly one change");
    }

    #[test]
    fn all_core_l2_pairs_route_with_one_change() {
        let p = AiProcessor::build(AiConfig::default()).unwrap();
        let topo = p.net.topology();
        let route = p.net.route();
        for &core in &p.map.cores {
            let core_ring = topo.nodes()[core.index()].ring;
            for &l2 in &p.map.l2s {
                let l2_ring = topo.nodes()[l2.index()].ring;
                assert_eq!(
                    route.ring_changes(core_ring, l2_ring),
                    Some(1),
                    "{core}→{l2}"
                );
            }
        }
    }

    #[test]
    fn hbm_to_local_l2_stays_on_ring() {
        let p = AiProcessor::build(AiConfig::default()).unwrap();
        let topo = p.net.topology();
        let route = p.net.route();
        for (h, &hbm) in p.map.hbms.iter().enumerate() {
            let hbm_ring = topo.nodes()[hbm.index()].ring;
            for l2 in p.map.l2s_on_ring_of_hbm(h) {
                let l2_ring = topo.nodes()[l2.index()].ring;
                assert_eq!(route.ring_changes(hbm_ring, l2_ring), Some(0));
            }
        }
    }

    #[test]
    fn tbs_conversion() {
        let cfg = AiConfig::default();
        // 8192 bytes/cycle at 2 GHz = 16.384 TB/s.
        assert!((cfg.tbs(8192.0) - 16.384).abs() < 1e-9);
    }

    #[test]
    fn scaled_variants_build() {
        for (v, c, h, l) in [(2, 2, 2, 2), (4, 4, 2, 4), (12, 8, 6, 8)] {
            let cfg = AiConfig {
                v_rings: v,
                cores_per_vring: c,
                h_rings: h,
                l2_per_hring: l,
                ..Default::default()
            };
            assert!(AiProcessor::build(cfg).is_ok(), "({v},{c},{h},{l})");
        }
    }
}
