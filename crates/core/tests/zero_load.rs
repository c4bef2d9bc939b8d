//! Zero-load latency in closed form, for every ordered device pair.
//!
//! An oracle that shares no code with the engine: each pair's
//! single-flit latency on an empty network is computed from the
//! `Topology` alone (`zero_load_model`: no `RouteTable`, and nothing in
//! `NetworkConfig` matters without contention), then held to **exact**
//! equality with the engine sending that one flit with nothing else in
//! flight.

mod zero_load_model;

use noc_core::spec::SocSpec;
use noc_core::topogen::GridParams;
use noc_core::{FlitClass, Network, NodeId, NodeKind, RingKind};
use zero_load_model::{hops, ZeroLoad};

/// Send one flit between every ordered device pair of `net`, one at a
/// time on the otherwise empty network, and compare each delivery's
/// latency with the closed form. Returns the number of pairs checked.
fn check_every_pair(mut net: Network) -> usize {
    let topo = net.topology().clone();
    let model = ZeroLoad::new(&topo);
    let devices: Vec<NodeId> = topo
        .nodes()
        .iter()
        .filter(|n| matches!(n.kind, NodeKind::Device))
        .map(|n| n.id)
        .collect();
    let mut mismatches = Vec::new();
    let mut pairs = 0;
    for &src in &devices {
        for &dst in &devices {
            if src == dst {
                continue;
            }
            pairs += 1;
            let want = model.latency(src, dst);
            net.enqueue(src, dst, FlitClass::Request, 0, 0)
                .expect("empty network accepts");
            let flit = (0..10_000)
                .find_map(|_| {
                    net.tick();
                    net.pop_delivered(dst)
                })
                .unwrap_or_else(|| panic!("{src} → {dst}: never delivered"));
            assert_eq!(net.in_flight(), 0, "{src} → {dst}: a flit left behind");
            let got = flit.total_latency(net.now());
            if got != want {
                mismatches.push(format!(
                    "{} → {}: engine {got}, closed form {want}",
                    topo.nodes()[src.index()].name,
                    topo.nodes()[dst.index()].name
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {pairs} pairs differ, first: {:?}",
        mismatches.len(),
        &mismatches[..mismatches.len().min(8)]
    );
    pairs
}

fn committed(json: &str) -> Network {
    SocSpec::from_json(json)
        .expect("committed spec parses")
        .build()
        .expect("committed spec builds")
        .0
}

#[test]
fn server_cpu_every_pair_matches_the_closed_form() {
    let net = committed(include_str!("../../../specs/server_cpu.json"));
    // Both compute dies' full rings and both I/O dies' half rings.
    assert!(net
        .topology()
        .rings()
        .iter()
        .any(|r| r.kind == RingKind::Half));
    assert_eq!(check_every_pair(net), 50 * 49);
}

#[test]
fn ai_processor_every_pair_matches_the_closed_form() {
    let net = committed(include_str!("../../../specs/ai_processor.json"));
    assert_eq!(check_every_pair(net), 130 * 129);
}

#[test]
fn torus_every_pair_matches_the_closed_form() {
    let (net, _) = GridParams::torus(4, 4).build().expect("4x4 torus builds");
    assert_eq!(check_every_pair(net), 32 * 31);
}

#[test]
fn half_ring_torus_every_pair_matches_the_closed_form() {
    let (net, _) = GridParams::torus(4, 4)
        .with_kind(RingKind::Half)
        .build()
        .expect("4x4 half-ring torus builds");
    assert_eq!(check_every_pair(net), 32 * 31);
}

#[test]
fn hops_take_the_short_way_round_and_half_rings_go_clockwise() {
    assert_eq!(hops(RingKind::Full, 8, 1, 7), 2);
    assert_eq!(hops(RingKind::Full, 8, 7, 1), 2);
    assert_eq!(hops(RingKind::Full, 8, 0, 4), 4);
    assert_eq!(hops(RingKind::Half, 8, 1, 7), 6);
    assert_eq!(hops(RingKind::Half, 8, 7, 1), 2);
    assert_eq!(hops(RingKind::Half, 6, 3, 3), 0);
}
