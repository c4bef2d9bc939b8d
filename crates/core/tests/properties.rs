//! Property-based tests of the core invariants listed in DESIGN.md §6.

mod scenarios;

use noc_core::drive::{drain, Verdict::Drained};
use noc_core::{
    BridgeConfig, FlitClass, Network, NetworkConfig, NodeId, RingKind, TopologyBuilder,
};
use proptest::prelude::*;

/// Build a random-but-valid two-ring topology: `na`/`nb` devices spread
/// over two full rings joined by one bridge.
fn build_net(
    stations_a: u16,
    stations_b: u16,
    na: u16,
    nb: u16,
    l2: bool,
) -> (Network, Vec<NodeId>) {
    let mut b = TopologyBuilder::new();
    let d0 = b.add_chiplet("d0");
    let d1 = b.add_chiplet("d1");
    let r0 = b.add_ring(d0, RingKind::Full, stations_a).unwrap();
    let r1 = b.add_ring(d1, RingKind::Full, stations_b).unwrap();
    let mut ids = Vec::new();
    for i in 0..na {
        ids.push(
            b.add_node(format!("a{i}"), r0, i % (stations_a - 1))
                .unwrap(),
        );
    }
    for i in 0..nb {
        ids.push(
            b.add_node(format!("b{i}"), r1, i % (stations_b - 1))
                .unwrap(),
        );
    }
    let cfg = if l2 {
        BridgeConfig::l2()
    } else {
        BridgeConfig::l1()
    };
    b.add_bridge(cfg, r0, stations_a - 1, r1, stations_b - 1)
        .unwrap();
    (
        Network::new(b.build().unwrap(), NetworkConfig::default()),
        ids,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Invariant 1: flits are never dropped or duplicated.
    #[test]
    fn conservation(
        stations_a in 4u16..12,
        stations_b in 4u16..12,
        na in 2u16..6,
        nb in 2u16..6,
        l2 in any::<bool>(),
        pattern in proptest::collection::vec((0u16..12, 0u16..12), 50..300),
    ) {
        let (mut net, ids) = build_net(stations_a, stations_b, na, nb, l2);
        let n = ids.len() as u16;
        let mut sent = 0u64;
        let mut recv = 0u64;
        for (i, &(s, d)) in pattern.iter().enumerate() {
            let src = ids[(s % n) as usize];
            let dst = ids[(d % n) as usize];
            if src != dst && net.enqueue(src, dst, FlitClass::Data, 64, i as u64).is_ok() {
                sent += 1;
            }
            net.tick();
            for &node in &ids {
                while net.pop_delivered(node).is_some() {
                    recv += 1;
                }
            }
        }
        let verdict = drain(&mut net, 20_000, |net| {
            for &node in &ids {
                while net.pop_delivered(node).is_some() {
                    recv += 1;
                }
            }
            Ok(())
        });
        prop_assert!(matches!(verdict, Ok(Drained(_))), "network failed to drain: {:?}", verdict);
        prop_assert_eq!(sent, recv, "conservation violated");
        prop_assert_eq!(net.stats().enqueued.get(), sent);
        prop_assert_eq!(net.stats().delivered.get(), sent);
    }

    /// Invariant 8: identical inputs produce bit-identical statistics.
    #[test]
    fn determinism(
        pattern in proptest::collection::vec((0u16..8, 0u16..8), 20..120),
    ) {
        let run = || {
            let (mut net, ids) = build_net(8, 8, 4, 4, true);
            let n = ids.len() as u16;
            for (i, &(s, d)) in pattern.iter().enumerate() {
                let src = ids[(s % n) as usize];
                let dst = ids[(d % n) as usize];
                if src != dst {
                    let _ = net.enqueue(src, dst, FlitClass::Request, 64, i as u64);
                }
                net.tick();
                for &node in &ids {
                    while net.pop_delivered(node).is_some() {}
                }
            }
            let verdict = drain(&mut net, 5000, |net| {
                for &node in &ids {
                    while net.pop_delivered(node).is_some() {}
                }
                Ok(())
            });
            (
                verdict,
                net.stats().delivered.get(),
                net.stats().deflections.get(),
                net.stats().itags_placed.get(),
                net.stats().etags_placed.get(),
                net.stats().hops.sum(),
            )
        };
        prop_assert_eq!(run(), run());
    }

    /// Invariant 5 is checked in route unit tests; here: hop counts of
    /// delivered same-ring flits never exceed half a lap plus one
    /// deflection lap per recorded deflection.
    #[test]
    fn hop_bound_on_single_ring(
        stations in 4u16..20,
        sends in proptest::collection::vec((0u16..20, 0u16..20), 10..100),
    ) {
        let mut b = TopologyBuilder::new();
        let die = b.add_chiplet("die");
        let r = b.add_ring(die, RingKind::Full, stations).unwrap();
        let ids: Vec<NodeId> = (0..stations.min(8))
            .map(|i| b.add_node(format!("n{i}"), r, i).unwrap())
            .collect();
        let mut net = Network::new(b.build().unwrap(), NetworkConfig::default());
        let n = ids.len() as u16;
        let mut done = false;
        let mut checked = 0u32;
        let mut cycles = 0u64;
        let mut queue: Vec<(NodeId, NodeId)> = sends
            .iter()
            .map(|&(s, d)| (ids[(s % n) as usize], ids[(d % n) as usize]))
            .filter(|(s, d)| s != d)
            .collect();
        while !done {
            if let Some(&(s, d)) = queue.last() {
                if net.enqueue(s, d, FlitClass::Data, 64, 0).is_ok() {
                    queue.pop();
                }
            }
            net.tick();
            cycles += 1;
            for &node in &ids {
                while let Some(f) = net.pop_delivered(node) {
                    let max_direct = (stations / 2 + 1) as u32;
                    let bound = max_direct + (f.deflections + 1) * stations as u32;
                    prop_assert!(
                        f.hops <= bound,
                        "hops {} exceed bound {} (deflections {})",
                        f.hops, bound, f.deflections
                    );
                    checked += 1;
                }
            }
            done = queue.is_empty() && net.in_flight() == 0;
            prop_assert!(cycles < 100_000, "drain took too long");
        }
        prop_assert!(checked > 0);
    }

    /// E-tagged flits deflect at most a bounded number of laps when the
    /// destination device drains steadily (invariant 2).
    #[test]
    fn etag_lap_bound(drain_period in 1u64..4) {
        let mut b = TopologyBuilder::new();
        let die = b.add_chiplet("die");
        let stations = 10u16;
        let r = b.add_ring(die, RingKind::Full, stations).unwrap();
        let srcs: Vec<NodeId> = (0..4)
            .map(|i| b.add_node(format!("s{i}"), r, i * 2).unwrap())
            .collect();
        let dst = b.add_node("sink", r, 9).unwrap();
        let mut net = Network::new(
            b.build().unwrap(),
            NetworkConfig { eject_queue_cap: 2, ..NetworkConfig::default() },
        );
        let mut sent = 0u32;
        for cycle in 0..6000u64 {
            for &s in &srcs {
                if sent < 100 && net.enqueue(s, dst, FlitClass::Data, 64, 0).is_ok() {
                    sent += 1;
                }
            }
            net.tick();
            if cycle % drain_period == 0 {
                let _ = net.pop_delivered(dst);
            }
        }
        let verdict = drain(&mut net, 20_000, |net| {
            while net.pop_delivered(dst).is_some() {}
            Ok(())
        });
        prop_assert!(matches!(verdict, Ok(Drained(_))), "{:?}", verdict);
        // With a draining sink, deflection counts stay bounded: the
        // E-tag reservation guarantees forward progress. Allow a lap
        // per queued reservation ahead of a flit (cap-bounded).
        let max_defl = net.stats().deflections_per_flit.max();
        prop_assert!(
            max_defl <= 4 * (srcs.len() as u64 + 1) * drain_period,
            "deflections unbounded: {max_defl}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Invariant 1, per-tick form: after *every* cycle, the flits
    /// physically resident in the network (queues, slots, bridge pipes,
    /// escape buffers) equal the in-flight count plus undrained device
    /// deliveries — nothing is ever dropped or duplicated mid-flight.
    #[test]
    fn per_tick_flit_conservation(
        stations_a in 4u16..12,
        stations_b in 4u16..12,
        na in 2u16..6,
        nb in 2u16..6,
        l2 in any::<bool>(),
        drain_period in 1u64..5,
        pattern in proptest::collection::vec((0u16..12, 0u16..12), 40..160),
    ) {
        let (mut net, ids) = build_net(stations_a, stations_b, na, nb, l2);
        let n = ids.len() as u16;
        for (i, &(s, d)) in pattern.iter().enumerate() {
            let src = ids[(s % n) as usize];
            let dst = ids[(d % n) as usize];
            if src != dst {
                let _ = net.enqueue(src, dst, FlitClass::Data, 64, i as u64);
            }
            net.tick();
            if (i as u64).is_multiple_of(drain_period) {
                for &node in &ids {
                    while net.pop_delivered(node).is_some() {}
                }
            }
            let undrained: u64 = ids.iter().map(|&x| net.delivered_len(x) as u64).sum();
            prop_assert_eq!(
                net.count_resident_flits(),
                net.in_flight() + undrained,
                "cycle {}: resident flits diverged from outstanding + undrained",
                i
            );
            prop_assert_eq!(
                net.stats().enqueued.get(),
                net.stats().delivered.get() + net.in_flight(),
                "cycle {}: enqueued != delivered + in_flight",
                i
            );
        }
        // Drain phase: invariant must keep holding to the end.
        let verdict = drain(&mut net, 20_000, |net| {
            for &node in &ids {
                while net.pop_delivered(node).is_some() {}
            }
            let (resident, in_flight) = (net.count_resident_flits(), net.in_flight());
            if resident != in_flight {
                return Err(format!("{resident} resident, {in_flight} in flight"));
            }
            Ok(())
        });
        prop_assert!(matches!(verdict, Ok(Drained(_))), "network failed to drain: {:?}", verdict);
    }

    /// Invariant 2, exact form (§3.4.3): a single deflected flit whose
    /// destination resumes draining takes exactly one extra lap — its
    /// E-tag reservation wins the first freed buffer, so it ejects on
    /// its next pass.
    #[test]
    fn etag_single_deflection_costs_one_lap(
        stations in 8u16..24,
        eject_cap in 1usize..4,
    ) {
        let probe = scenarios::etag_probe(stations, eject_cap).map_err(TestCaseError)?;
        prop_assert_eq!(probe.deflections, 1, "more than one extra lap");
        // Direct distance plus exactly one circumference (±1 cycle of
        // injection skew).
        let probe_station = stations / 2;
        let direct = (stations - probe_station) as u32; // shorter-arc Cw/Ccw symmetric
        prop_assert!(
            probe.hops <= direct.min(probe_station as u32) + stations as u32 + 1,
            "hops {} exceed one-extra-lap bound (stations {}, direct {})",
            probe.hops, stations, direct
        );
    }

    /// Invariant 3 (§4.1.2): with deflection-free traffic, a starving
    /// injector waits at most `itag_threshold` cycles before tagging a
    /// slot plus one circumference for the tag to come back — the
    /// starve counter never exceeds threshold + stations.
    #[test]
    fn itag_starvation_bound(
        threshold in 4u32..14,
        extra_load in 0u16..2,
    ) {
        let stations = 16u16;
        let mut b = TopologyBuilder::new();
        let die = b.add_chiplet("die");
        let r = b.add_ring(die, RingKind::Full, stations).unwrap();
        // Upstream sources flood the Cw lane through the victim's
        // station; every flow's shorter arc is clockwise.
        let nsrc = 3 + extra_load;
        let srcs: Vec<NodeId> = (0..nsrc)
            .map(|i| b.add_node(format!("s{i}"), r, 1 + i).unwrap())
            .collect();
        let victim = b.add_node("victim", r, 1 + nsrc).unwrap();
        let dsts: Vec<NodeId> = (0..nsrc)
            .map(|i| b.add_node(format!("d{i}"), r, 9 + i).unwrap())
            .collect();
        let victim_dst = b.add_node("vd", r, (9 + nsrc) % stations).unwrap();
        let mut net = Network::new(
            b.build().unwrap(),
            NetworkConfig { itag_threshold: threshold, ..NetworkConfig::default() },
        );
        let mut max_starve = 0u32;
        for cycle in 0..2_000u64 {
            for (i, &s) in srcs.iter().enumerate() {
                let _ = net.enqueue(s, dsts[i], FlitClass::Data, 64, cycle);
            }
            if net.inject_len(victim) == 0 {
                let _ = net.enqueue(victim, victim_dst, FlitClass::Data, 64, cycle);
            }
            net.tick();
            max_starve = max_starve.max(net.starve_of(victim));
            for &d in dsts.iter().chain([&victim_dst]) {
                while net.pop_delivered(d).is_some() {}
            }
        }
        // Precondition: the bound below assumes tagged slots return
        // empty, which holds only without deflections.
        prop_assert_eq!(net.stats().deflections.get(), 0, "scenario not deflection-free");
        prop_assert!(net.stats().itags_placed.get() > 0, "victim never starved to threshold");
        prop_assert!(
            max_starve <= threshold + stations as u32,
            "starve counter reached {} > threshold {} + circumference {}",
            max_starve, threshold, stations
        );
    }

    /// Parallel equal-cost bridges between two rings all carry traffic:
    /// the route table hashes destinations across them (DESIGN.md §5).
    #[test]
    fn parallel_bridges_load_share(
        bridges in 2usize..4,
        dsts in 4u16..8,
    ) {
        let mut b = TopologyBuilder::new();
        let d0 = b.add_chiplet("d0");
        let d1 = b.add_chiplet("d1");
        let r0 = b.add_ring(d0, RingKind::Full, 8).unwrap();
        let r1 = b.add_ring(d1, RingKind::Full, 8).unwrap();
        let src = b.add_node("src", r0, 0).unwrap();
        let dst_nodes: Vec<NodeId> = (0..dsts)
            .map(|i| b.add_node(format!("d{i}"), r1, i % 7).unwrap())
            .collect();
        for i in 0..bridges {
            let st = 7 - i as u16; // distinct stations: 2 ports each
            b.add_bridge(BridgeConfig::l2(), r0, st, r1, st).unwrap();
        }
        let topo = b.build().unwrap();
        let route = noc_core::RouteTable::build(&topo);
        // Collect the exit endpoints used for the destinations.
        let mut exits = std::collections::HashSet::new();
        for &d in &dst_nodes {
            let hop = route.exit(noc_core::RingId(0), d).unwrap();
            exits.insert(hop.target);
        }
        let _ = src;
        prop_assert!(
            exits.len() >= 2.min(dst_nodes.len()),
            "only {} exit(s) used for {} destinations over {} bridges",
            exits.len(), dst_nodes.len(), bridges
        );
    }

    /// Application-defined specs survive a JSON round trip and build
    /// identically (same device names, rings, bridges).
    #[test]
    fn soc_spec_roundtrip(
        stations in 3u16..8,
        devices_per_ring in 1usize..3,
        chiplets in 2usize..4,
    ) {
        use noc_core::spec::*;
        let mut spec = SocSpec {
            name: "prop".into(),
            chiplets: (0..chiplets)
                .map(|c| ChipletDef {
                    name: format!("c{c}"),
                    rings: vec![RingDef {
                        kind: if c % 2 == 0 { RingKind::Full } else { RingKind::Half },
                        stations,
                        devices: (0..devices_per_ring)
                            .map(|d| DeviceDef {
                                name: format!("dev{c}_{d}"),
                                station: (d as u16) % stations,
                            })
                            .collect(),
                    }],
                })
                .collect(),
            bridges: Vec::new(),
            network: noc_core::NetworkConfig::default(),
        };
        // Chain the chiplets with bridges at the last station.
        for c in 0..chiplets - 1 {
            spec.bridges.push(BridgeDef {
                level: noc_core::BridgeLevel::L2,
                a: EndpointRef { chiplet: format!("c{c}"), ring: 0, station: stations - 1 },
                b: EndpointRef { chiplet: format!("c{}", c + 1), ring: 0, station: stations - 1 },
                latency: None,
                buffer_cap: None,
                width: None,
            });
        }
        let json = spec.to_json().unwrap();
        let back = SocSpec::from_json(&json).unwrap();
        prop_assert_eq!(&spec, &back);
        let (net, names) = back.build().expect("valid spec builds");
        prop_assert_eq!(names.len(), chiplets * devices_per_ring);
        prop_assert_eq!(net.topology().bridges().len(), chiplets - 1);
    }
}
