//! Cross-crate property tests: coherence + NoC invariants under random
//! multi-chiplet traffic (DESIGN.md §6, invariants 1, 7, 8).

use noc_chi::drive::{settle, Verdict::Drained};
use noc_chi::{CoherentSystem, LineAddr, LlcParams, ReadKind, SystemSpec};
use noc_core::route::Hop;
use noc_core::{
    BridgeConfig, GridParams, Network, NetworkConfig, NodeId, RingId, RingKind, RouteTable,
    Topology, TopologyBuilder,
};
use proptest::prelude::*;

/// Two-die coherent system with configurable geometry.
fn build(ring_stations: u16, rn_per_die: usize) -> (CoherentSystem, Vec<NodeId>) {
    let mut b = TopologyBuilder::new();
    let d0 = b.add_chiplet("d0");
    let d1 = b.add_chiplet("d1");
    let r0 = b.add_ring(d0, RingKind::Full, ring_stations).unwrap();
    let r1 = b.add_ring(d1, RingKind::Full, ring_stations).unwrap();
    let mut rns = Vec::new();
    for i in 0..rn_per_die {
        rns.push(b.add_node(format!("a{i}"), r0, i as u16).unwrap());
        rns.push(b.add_node(format!("b{i}"), r1, i as u16).unwrap());
    }
    let hn0 = b.add_node("hn0", r0, ring_stations - 2).unwrap();
    let hn1 = b.add_node("hn1", r1, ring_stations - 2).unwrap();
    let sn0 = b.add_node("sn0", r0, ring_stations - 3).unwrap();
    let sn1 = b.add_node("sn1", r1, ring_stations - 3).unwrap();
    b.add_bridge(
        BridgeConfig::l2(),
        r0,
        ring_stations - 1,
        r1,
        ring_stations - 1,
    )
    .unwrap();
    let net = Network::new(b.build().unwrap(), NetworkConfig::default());
    let sys = CoherentSystem::new(
        net,
        SystemSpec {
            requesters: rns.clone(),
            home_nodes: vec![hn0, hn1],
            memories: vec![sn0, sn1],
            llc: LlcParams::default(),
        },
    );
    (sys, rns)
}

/// The coherence invariants on the 24 lines the property touches (see
/// [`CoherentSystem::check_coherent`]).
fn coherent(sys: &CoherentSystem) -> TestCaseResult {
    sys.check_coherent((0..24).map(LineAddr))
        .map_err(|e| TestCaseError(e.to_string()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random cross-die coherent traffic always drains, never loses a
    /// transaction, and after every cycle holds SWMR on every line with
    /// every copy listed by its directory.
    #[test]
    fn coherent_traffic_conservation_and_swmr(
        stations in 6u16..12,
        rn_per_die in 2usize..4,
        ops in proptest::collection::vec((0u8..4, 0u64..24), 40..150),
    ) {
        let (mut sys, rns) = build(stations, rn_per_die);
        let mut issued = 0u64;
        for &(op, line) in &ops {
            let rn = rns[(line as usize * 7 + op as usize) % rns.len()];
            let addr = LineAddr(line);
            match op {
                0 => { sys.write(rn, addr); issued += 1; }
                1 => {
                    if sys.write_back(rn, addr).is_some() {
                        issued += 1;
                    }
                }
                2 => { sys.read(rn, addr, ReadKind::Unique); issued += 1; }
                _ => { sys.read(rn, addr, ReadKind::Shared); issued += 1; }
            }
            for _ in 0..3 {
                sys.tick();
                coherent(&sys)?;
            }
        }
        let verdict = settle(&mut sys, 300_000, |sys| {
            sys.check_coherent((0..24).map(LineAddr)).map_err(|e| e.to_string())
        });
        prop_assert!(matches!(verdict, Ok(Drained(_))), "stuck transactions: {:?}", verdict);
        prop_assert_eq!(sys.take_completions().len() as u64, issued);
    }

    /// The full coherent stack is deterministic.
    #[test]
    fn coherent_stack_determinism(
        ops in proptest::collection::vec((0u8..3, 0u64..16), 20..80),
    ) {
        let run = || {
            let (mut sys, rns) = build(8, 3);
            for &(op, line) in &ops {
                let rn = rns[(line as usize + op as usize) % rns.len()];
                match op {
                    0 => { sys.write(rn, LineAddr(line)); }
                    _ => { sys.read(rn, LineAddr(line), ReadKind::Shared); }
                }
                sys.tick();
                sys.tick();
            }
            let verdict = settle(&mut sys, 100_000, |_| Ok(()));
            let stats = sys.network().stats();
            (
                verdict,
                stats.delivered.get(),
                stats.deflections.get(),
                stats.bridge_crossings.get(),
                stats.hops.sum(),
            )
        };
        prop_assert_eq!(run(), run());
    }
}

/// The exit-hop grid as `RouteTable` stored it before it was packed
/// into `u32` targets plus a station table: one `Option<Hop>` per
/// (ring, node), ring-major, derived the way `RouteTable::build` did —
/// the destination itself on its own ring, otherwise the bridge
/// endpoint toward a ring one change closer, parallel bridges sharing
/// by destination id over the (neighbour ring, endpoint)-sorted set.
fn unpacked_route_grid(topo: &Topology, table: &RouteTable) -> Vec<Option<Hop>> {
    let nodes = topo.nodes();
    let nrings = topo.rings().len();
    let mut adj: Vec<Vec<(RingId, NodeId)>> = vec![Vec::new(); nrings];
    for br in topo.bridges() {
        let (ra, rb) = (nodes[br.a.index()].ring, nodes[br.b.index()].ring);
        adj[ra.index()].push((rb, br.a));
        adj[rb.index()].push((ra, br.b));
    }
    let mut grid = Vec::with_capacity(nrings * nodes.len());
    for (ring, adj) in adj.iter_mut().enumerate() {
        adj.sort();
        let from = RingId(ring as u16);
        for dst in nodes {
            let via = match table.ring_changes(from, dst.ring) {
                None => None,
                Some(0) => Some(dst.id),
                Some(d) => {
                    let cands: Vec<NodeId> = adj
                        .iter()
                        .filter(|&&(nbr, _)| table.ring_changes(nbr, dst.ring) == Some(d - 1))
                        .map(|&(_, via)| via)
                        .collect();
                    Some(cands[dst.id.index() % cands.len()])
                }
            };
            grid.push(via.map(|target| Hop {
                station: nodes[target.index()].station,
                target,
            }));
        }
    }
    grid
}

/// Every (ring, node) of the largest generated torus and of both of the
/// paper's SoCs routes exactly as the unpacked table did.
#[test]
fn packed_route_table_answers_as_the_option_hop_grid_did() {
    let (torus, _) = GridParams::torus(8, 8)
        .with_stations(16)
        .with_devices(4)
        .generate()
        .expect("8x8 torus generates")
        .compile()
        .expect("generated spec compiles");
    let (server, _) = noc_server_cpu::ServerCpuConfig::default()
        .spec()
        .0
        .compile()
        .expect("Server-CPU builds");
    let (ai, _) = noc_ai::AiConfig::default()
        .spec()
        .0
        .compile()
        .expect("AI SoC builds");
    for (name, topo) in [("torus8x8", torus), ("server-cpu", server), ("ai", ai)] {
        let table = RouteTable::build(&topo);
        let grid = unpacked_route_grid(&topo, &table);
        let stride = topo.nodes().len();
        let mut bridged = 0usize;
        for ring in 0..topo.rings().len() {
            for dst in topo.nodes() {
                let want = grid[ring * stride + dst.id.index()];
                assert_eq!(
                    table.exit(RingId(ring as u16), dst.id),
                    want,
                    "{name}: ring {ring} -> {}",
                    dst.id
                );
                bridged += usize::from(want.is_some_and(|hop| hop.target != dst.id));
            }
        }
        assert!(bridged > 0, "{name}: no route leaves its ring");
    }
}
