//! Cross-commit anchor for how the paper's two SoCs are constructed.
//!
//! For every Server-CPU and AI-Processor configuration that `repro`,
//! the ablations and the goldens build, this pins FNV-1a digests of:
//!
//! * every node as (name, ring, station, port, kind), in name order;
//! * every bridge as (id, each `BridgeConfig` field by name, endpoint
//!   names);
//! * every route exit `(ring, destination name) → (station, target
//!   name)`, keyed by destination name;
//! * the node map (`ServerCpuMap` / `AiMap`) as names;
//! * for single-package and AI configs, the nodes and the map in
//!   `NodeId` order as well.
//!
//! The first four are independent of how node ids are numbered, so a
//! multi-package build may renumber its devices and still match; the
//! fifth pins the numbering itself where it must not move. The
//! constants were produced at commit 99f731b, before the SoCs moved
//! from hand-written builder calls to `SocSpec`s, and may not be
//! regenerated in a change that claims to preserve the fabric. The
//! bridge column alone was recomputed when its lines stopped printing
//! `BridgeConfig` with `{:?}` and the always-zero
//! `drm_exit_occupancy` field was retired; no fabric changed.

use noc_ai::{AiConfig, AiProcessor};
use noc_core::{Network, NodeId, RingId};
use noc_server_cpu::soc::CCD_COUNT;
use noc_server_cpu::{ServerCpu, ServerCpuConfig};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(lines: impl IntoIterator<Item = String>) -> u64 {
    lines.into_iter().fold(FNV_OFFSET, |h, line| {
        line.bytes().chain([b'\n']).fold(h, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}

/// `[nodes, bridges, routes, map by name, NodeId order]` of one build.
fn digests(net: &Network, map: &[(&str, &[NodeId])], extra: &str) -> [u64; 5] {
    let topo = net.topology();
    let name = |id: NodeId| topo.nodes()[id.index()].name.as_str();
    let mut by_name: Vec<_> = topo.nodes().iter().collect();
    by_name.sort_by(|a, b| a.name.cmp(&b.name));

    let nodes = fnv(by_name.iter().map(|n| {
        format!(
            "{} {} {} {} {:?}",
            n.name, n.ring, n.station, n.port, n.kind
        )
    }));
    let bridges = fnv(topo.bridges().iter().map(|b| {
        let c = &b.config;
        format!(
            "{} {:?} buffer_cap {} latency {} width {} reserved_cap {} swap {} \
             escape_always {} deadlock_threshold {} {} {}",
            b.id,
            c.level,
            c.buffer_cap,
            c.latency,
            c.width_flits_per_cycle,
            c.reserved_cap,
            c.swap_enabled,
            c.escape_always,
            c.deadlock_threshold,
            name(b.a),
            name(b.b)
        )
    }));
    let route = net.route();
    let routes = fnv((0..topo.rings().len()).flat_map(|r| {
        by_name.iter().map(move |dst| {
            let exit = route
                .exit(RingId(r as u16), dst.id)
                .map(|hop| format!("{} {}", hop.station, name(hop.target)));
            format!("r{r} {} {exit:?}", dst.name)
        })
    }));
    let map_names = fnv(map
        .iter()
        .map(|(field, ids)| {
            let names: Vec<&str> = ids.iter().map(|&id| name(id)).collect();
            format!("{field} {names:?}")
        })
        .chain([extra.to_string()]));
    let by_id = fnv(topo
        .nodes()
        .iter()
        .map(|n| format!("{} {}", n.id, n.name))
        .chain(map.iter().map(|(field, ids)| format!("{field} {ids:?}"))));
    [nodes, bridges, routes, map_names, by_id]
}

fn server(cfg: ServerCpuConfig) -> [u64; 5] {
    let s = ServerCpu::build(cfg).expect("Server-CPU builds");
    let m = &s.map;
    let extra = format!("{} {}", m.clusters_per_ccd, CCD_COUNT);
    digests(
        s.sys.network(),
        &[
            ("clusters", &m.clusters),
            ("home_nodes", &m.home_nodes),
            ("ddrs", &m.ddrs),
            ("io_devices", &m.io_devices),
            ("pas", &m.pas),
        ],
        &extra,
    )
}

fn ai(v: usize, c: usize, h: usize, l: usize) -> [u64; 5] {
    let p = AiProcessor::build(AiConfig {
        v_rings: v,
        cores_per_vring: c,
        h_rings: h,
        l2_per_hring: l,
        ..Default::default()
    })
    .expect("AI-Processor builds");
    let m = &p.map;
    let extra = format!("{:?} {:?} {:?}", m.l2_ring, m.hbm_ring, m.llc_ring);
    digests(
        &p.net,
        &[
            ("cores", &m.cores),
            ("l2s", &m.l2s),
            ("hbms", &m.hbms),
            ("dmas", &m.dmas),
            ("llcs", &m.llcs),
        ],
        &extra,
    )
}

/// Every configuration pinned below, by label. The second field says
/// whether the `NodeId`-order digest is part of the contract.
fn configs() -> Vec<(&'static str, bool, [u64; 5])> {
    let d = ServerCpuConfig::default;
    vec![
        ("server default", true, server(d())),
        ("server 7 clusters", true, server(d().scaled_to_clusters(7))),
        (
            "server ablation_io",
            true,
            server(ServerCpuConfig {
                clusters_per_ccd: 8,
                hn_per_ccd: 2,
                ddr_per_ccd: 2,
                ..d()
            }),
        ),
        (
            "server 2P",
            false,
            server(ServerCpuConfig { packages: 2, ..d() }),
        ),
        (
            "server 2P 4 clusters",
            false,
            server(ServerCpuConfig {
                packages: 2,
                clusters_per_ccd: 4,
                ..d()
            }),
        ),
        (
            "server 4P",
            false,
            server(ServerCpuConfig { packages: 4, ..d() }),
        ),
        ("ai default", true, ai(8, 8, 6, 8)),
        ("ai 2,2,2,2", true, ai(2, 2, 2, 2)),
        ("ai 4,4,2,4", true, ai(4, 4, 2, 4)),
        ("ai 12,8,6,8", true, ai(12, 8, 6, 8)),
    ]
}

/// `(label, [nodes, bridges, routes, map by name, NodeId order])`; the
/// last digest is `0` where renumbering is allowed.
#[rustfmt::skip]
const PAPER_SOC_GOLDENS: &[(&str, [u64; 5])] = &[
    ("server default", [0x24be6866ad9414f6, 0x54e25387773ac7b1, 0x20c6dd8373085ff1, 0xfe9047a2b09f3f34, 0xbfd0e77bbdd9c90d]),
    ("server 7 clusters", [0x551958e122670588, 0x54e25387773ac7b1, 0x1cf4ca13f80ed5ce, 0x32e6b94b1c79f583, 0xcd098c42736d5f88]),
    ("server ablation_io", [0x0f81fffa96c7c8d2, 0x54e25387773ac7b1, 0x549dee3ece7b0d55, 0x60432e876a4b2523, 0x012a90c173203ba3]),
    ("server 2P", [0xb9e9d5097cc03242, 0x62dbb294843c6f4e, 0x5b2d59e0c4b0d813, 0x66b683c7e9bd8653, 0x0000000000000000]),
    ("server 2P 4 clusters", [0x7f8db5c513260410, 0x62dbb294843c6f4e, 0x5daab2b95deab36b, 0xe7cd2550398c8066, 0x0000000000000000]),
    ("server 4P", [0x127937ca43fca8af, 0x5294c7a5892dc7a5, 0x56dcca96ff0407a3, 0x02fcdd6b9c54965f, 0x0000000000000000]),
    ("ai default", [0x4c14833e475d8e6d, 0x9e4f901179ab7cc5, 0xeeaa3e1e59878392, 0x8ada6f5c2e0c16a6, 0x979d01c54883f2f4]),
    ("ai 2,2,2,2", [0x3b6492ded69c11d9, 0x811348e87e6c79e5, 0xf2e04d6181a39f4a, 0x2199f39412c7b60a, 0xc04b3b0730e324f0]),
    ("ai 4,4,2,4", [0x9376c5f647c51bcb, 0xf79dc4a67b11223d, 0x727a31765f2af7ea, 0x07c995f939c5d14a, 0x1e2313662b838f5a]),
    ("ai 12,8,6,8", [0x6888adec9094c67b, 0x9830261746eece81, 0x8a7cc91552f5ae46, 0xb914673dd0b4efee, 0x7d0dd1c0dd403cc0]),
];

#[test]
fn paper_socs_are_built_as_pinned() {
    let got: Vec<(&str, [u64; 5])> = configs()
        .into_iter()
        .map(|(label, pin_ids, mut d)| {
            if !pin_ids {
                d[4] = 0;
            }
            (label, d)
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(label, d)| {
            let hex: Vec<String> = d.iter().map(|x| format!("{x:#018x}")).collect();
            format!("    ({label:?}, [{}]),\n", hex.join(", "))
        })
        .collect();
    assert!(
        got.as_slice() == PAPER_SOC_GOLDENS,
        "recomputed table:\n{table}"
    );
}
