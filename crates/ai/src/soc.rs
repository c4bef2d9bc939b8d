//! The AI-Processor SoC (paper §4.3, Figure 8B): AI cores on vertical
//! rings, the memory system (L2 slices, LLC, HBM, DMA) on horizontal
//! rings, RBRG-L1 bridges at every intersection. Any core↔memory route
//! takes at most one ring change (X-Y/Y-X routing).

use noc_core::spec::{BridgeDef, ChipletDef, DeviceDef, EndpointRef, RingDef};
use noc_core::{
    BridgeLevel, Network, NetworkConfig, NocDiagnostics, NodeId, RingKind, SocSpec, SpecError,
};

/// RBRG-L1 traversal latency (§4.1.3).
const BRIDGE_LATENCY: u32 = 2;
/// Inject and eject queue depth of every AI-Processor node, the
/// spec's `network` block (the Server-CPU keeps the defaults).
const QUEUE_CAP: usize = 16;

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
    /// Data payload of one NoC transaction (the L2 access granule).
    pub line_bytes: u32,
    /// NoC clock in GHz (for TB/s conversion).
    pub clock_ghz: f64,
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
            line_bytes: 512,
            clock_ghz: 2.0,
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

    /// The SoC as a [`SocSpec`], plus the node map its compile yields
    /// ([`SocSpec::compile`] numbers devices in declaration order, so
    /// each id is recorded as its device is declared). One die carries
    /// the vertical rings, then the horizontal rings, then an RBRG-L1
    /// at every intersection.
    ///
    /// Balanced layout (§4.3: "the balanced layout of a large number of
    /// devices ... is the key"): devices occupy station port 0; bridge
    /// endpoints are interleaved around the ring on port 1, so average
    /// device↔bridge distance is minimal and both station interfaces
    /// are used.
    pub fn spec(&self) -> (SocSpec, AiMap) {
        let (vr, hr) = (self.v_rings, self.h_rings);
        let mut map = AiMap::default();
        let mut next = 0;
        // Devices sit on consecutive stations from 0, in declaration order.
        let mut dev = |devices: &mut Vec<DeviceDef>, ids: &mut Vec<NodeId>, name: String| {
            ids.push(NodeId(next));
            next += 1;
            let station = devices.len() as u16;
            devices.push(DeviceDef { name, station });
        };
        let full = |stations: usize, devices| RingDef {
            kind: RingKind::Full,
            stations: stations as u16,
            devices,
        };
        let mut rings = Vec::new();
        for v in 0..vr {
            let mut devices = Vec::new();
            for i in 0..self.cores_per_vring {
                dev(&mut devices, &mut map.cores, format!("core{v}_{i}"));
            }
            rings.push(full(self.cores_per_vring.max(hr), devices));
        }
        // Horizontal rings: L2 slices plus this ring's share of
        // HBM/DMA/LLC on port 0, in ring-major order (HBM h, h + H, …
        // share ring h); one bridge endpoint per vertical ring on port 1.
        for h in 0..hr {
            let mut devices = Vec::new();
            for i in 0..self.l2_per_hring {
                dev(&mut devices, &mut map.l2s, format!("l2_{h}_{i}"));
                map.l2_ring.push(h);
            }
            let mine = |count: usize| (h..count).step_by(hr);
            for i in mine(self.hbm_count) {
                dev(&mut devices, &mut map.hbms, format!("hbm{i}"));
                map.hbm_ring.push(h);
            }
            for i in mine(self.dma_count) {
                dev(&mut devices, &mut map.dmas, format!("dma{i}"));
            }
            for i in mine(self.llc_count) {
                dev(&mut devices, &mut map.llcs, format!("llc{i}"));
                map.llc_ring.push(h);
            }
            rings.push(full(devices.len().max(vr), devices));
        }

        // RBRG-L1 at every (vertical, horizontal) intersection, at
        // station k·stations/of of each ring. The paper's RBRG-L1
        // provides "data buffering for the flits that need to exchange a
        // ring path" — deep enough to absorb a full burst from one
        // vertical ring's cores.
        let at = |ring: usize, k: usize, of: usize| EndpointRef {
            chiplet: "ai-die".into(),
            ring,
            station: (k * rings[ring].stations as usize / of) as u16,
        };
        let mut bridges = Vec::new();
        for v in 0..vr {
            for h in 0..hr {
                bridges.push(BridgeDef {
                    latency: Some(BRIDGE_LATENCY),
                    width: Some(4),
                    buffer_cap: Some(32),
                    ..BridgeDef::new(BridgeLevel::L1, at(v, h, hr), at(vr + h, v, vr))
                });
            }
        }
        let spec = SocSpec {
            name: "ai-processor".into(),
            chiplets: vec![ChipletDef {
                name: "ai-die".into(),
                rings,
            }],
            bridges,
            network: NetworkConfig {
                inject_queue_cap: QUEUE_CAP,
                eject_queue_cap: QUEUE_CAP,
                ..NetworkConfig::default()
            },
        };
        (spec, map)
    }
}

/// Node map of a built AI processor.
#[derive(Debug, Clone, Default)]
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
    /// Build the processor. A caller that observes it switches the
    /// observatory on at `net` before the first tick.
    ///
    /// # Errors
    ///
    /// Returns the [`SpecError`] of a degenerate configuration's spec.
    pub fn build(cfg: AiConfig) -> Result<Self, SpecError> {
        let (spec, map) = cfg.spec();
        let (net, _) = spec.build()?;
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

    /// `specs/ai_processor.json` is the default config's spec, byte for byte
    /// (`NOC_WRITE_SPECS=1` rewrites it after a deliberate change).
    #[test]
    fn committed_spec_is_what_the_default_config_emits() {
        let json = AiConfig::default().spec().0.to_json().unwrap() + "\n";
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/ai_processor.json");
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
            AiConfig::default().spec().0
        );
    }
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
