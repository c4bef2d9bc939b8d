//! Behavioural tests of the bufferless multi-ring NoC: delivery,
//! shortest-path lane selection, tags, bridges and SWAP.

use noc_core::{
    BridgeConfig, FlitClass, Network, NetworkConfig, NodeId, RingId, RingKind, TopologyBuilder,
};

fn single_full_ring(stations: u16, devices: &[u16]) -> (Network, Vec<NodeId>) {
    let mut b = TopologyBuilder::new();
    let die = b.add_chiplet("die");
    let r = b.add_ring(die, RingKind::Full, stations).unwrap();
    let ids = devices
        .iter()
        .map(|&s| b.add_node(format!("dev{s}"), r, s).unwrap())
        .collect();
    (
        Network::new(b.build().unwrap(), NetworkConfig::default()),
        ids,
    )
}

fn drain(net: &mut Network, node: NodeId) -> Vec<noc_core::Flit> {
    let mut out = Vec::new();
    while let Some(f) = net.pop_delivered(node) {
        out.push(f);
    }
    out
}

#[test]
fn delivers_single_flit_on_ring() {
    let (mut net, ids) = single_full_ring(8, &[0, 4]);
    let id = net
        .enqueue(ids[0], ids[1], FlitClass::Request, 64, 42)
        .unwrap();
    let mut delivered = None;
    for _ in 0..50 {
        net.tick();
        if let Some(f) = net.pop_delivered(ids[1]) {
            delivered = Some(f);
            break;
        }
    }
    let f = delivered.expect("flit must arrive");
    assert_eq!(f.id, id);
    assert_eq!(f.token, 42);
    assert_eq!(f.src, ids[0]);
    assert_eq!(f.hops, 4, "0→4 on an 8-station full ring is 4 hops");
    assert_eq!(f.deflections, 0);
    assert_eq!(net.in_flight(), 0);
}

#[test]
fn full_ring_takes_shorter_arc() {
    let (mut net, ids) = single_full_ring(8, &[0, 6]);
    net.enqueue(ids[0], ids[1], FlitClass::Request, 64, 0)
        .unwrap();
    for _ in 0..50 {
        net.tick();
    }
    let f = drain(&mut net, ids[1]).pop().expect("arrived");
    assert_eq!(f.hops, 2, "0→6 should go counter-clockwise (2 hops)");
}

#[test]
fn half_ring_always_travels_clockwise() {
    let mut b = TopologyBuilder::new();
    let die = b.add_chiplet("die");
    let r = b.add_ring(die, RingKind::Half, 8).unwrap();
    let a = b.add_node("a", r, 0).unwrap();
    let z = b.add_node("z", r, 6).unwrap();
    let mut net = Network::new(b.build().unwrap(), NetworkConfig::default());
    net.enqueue(a, z, FlitClass::Request, 64, 0).unwrap();
    for _ in 0..50 {
        net.tick();
    }
    let f = drain(&mut net, z).pop().expect("arrived");
    assert_eq!(f.hops, 6, "half ring cannot go the short way");
}

#[test]
fn same_station_neighbors_use_local_path() {
    // Two devices sharing one cross station exchange flits without
    // touching the ring.
    let (mut net, ids) = {
        let mut b = TopologyBuilder::new();
        let die = b.add_chiplet("die");
        let r = b.add_ring(die, RingKind::Full, 4).unwrap();
        let a = b.add_node("a", r, 1).unwrap();
        let b2 = b.add_node("b", r, 1).unwrap();
        (
            Network::new(b.build().unwrap(), NetworkConfig::default()),
            vec![a, b2],
        )
    };
    net.enqueue(ids[0], ids[1], FlitClass::Data, 64, 5).unwrap();
    for _ in 0..5 {
        net.tick();
    }
    let f = drain(&mut net, ids[1]).pop().expect("arrived");
    assert_eq!(f.hops, 0, "local port-to-port delivery takes no ring hops");
    assert_eq!(net.ring_occupancy(RingId(0)), 0);
}

#[test]
fn bidirectional_traffic_both_delivered() {
    let (mut net, ids) = single_full_ring(10, &[0, 5]);
    net.enqueue(ids[0], ids[1], FlitClass::Request, 64, 1)
        .unwrap();
    net.enqueue(ids[1], ids[0], FlitClass::Response, 64, 2)
        .unwrap();
    for _ in 0..50 {
        net.tick();
    }
    assert_eq!(drain(&mut net, ids[1]).len(), 1);
    assert_eq!(drain(&mut net, ids[0]).len(), 1);
}

#[test]
fn hot_destination_etags_then_drains() {
    // Five senders hammer one destination with a tiny eject queue; if
    // the device drains slowly, E-tags must keep everything live.
    let (mut net, ids) = single_full_ring(12, &[0, 2, 4, 6, 8, 10]);
    let dst = ids[5];
    let mut sent = 0u32;
    let mut got = 0u32;
    for cycle in 0..4000u64 {
        for &src in &ids[..5] {
            if net.can_enqueue(src) && sent < 200 {
                net.enqueue(src, dst, FlitClass::Request, 64, 0).unwrap();
                sent += 1;
            }
        }
        net.tick();
        // Drain one flit every 3 cycles: slower than the offered load,
        // so the eject queue fills and arrivals must deflect with E-tags.
        if cycle % 3 == 0 && net.pop_delivered(dst).is_some() {
            got += 1;
        }
    }
    // Let it finish.
    for _ in 0..8000 {
        net.tick();
        got += drain(&mut net, dst).len() as u32;
    }
    assert_eq!(sent, 200);
    assert_eq!(got, 200, "every flit eventually drained by the device");
    assert_eq!(net.stats().delivered.get(), 200, "every flit delivered");
    assert!(
        net.stats().etags_placed.get() > 0,
        "contention must trigger E-tags"
    );
    assert_eq!(net.in_flight(), 0);
}

#[test]
fn a_freed_eject_entry_waits_for_the_etagged_flit() {
    // §4.1.2: a deflected flit reserves an Eject Queue entry at its
    // target. When the target frees an entry before the flit comes back,
    // a normal flit arriving first must deflect instead of taking it, so
    // the tagged flit ejects on its next pass.
    let mut b = TopologyBuilder::new();
    let die = b.add_chiplet("die");
    let r = b.add_ring(die, RingKind::Full, 16).unwrap();
    let sink = b.add_node("sink", r, 0).unwrap();
    let near = b.add_node("near", r, 1).unwrap();
    let probe_src = b.add_node("probe", r, 8).unwrap();
    let cfg = NetworkConfig {
        eject_queue_cap: 1,
        ..NetworkConfig::default()
    };
    let mut net = Network::new(b.build().unwrap(), cfg);
    // Fill the sink's one-entry eject queue and leave it undrained.
    net.enqueue(near, sink, FlitClass::Data, 64, 1).unwrap();
    for _ in 0..20 {
        net.tick();
    }
    assert_eq!(net.delivered_len(sink), 1);
    // The probe deflects at the full sink and places its E-tag.
    net.enqueue(probe_src, sink, FlitClass::Data, 64, 2)
        .unwrap();
    while net.stats().etags_placed.get() == 0 {
        assert!(net.now().raw() < 200, "probe never deflected");
        net.tick();
    }
    // Free the entry, and send a normal flit that arrives from one
    // station away, well before the probe's lap of 16 cycles is over.
    assert_eq!(drain(&mut net, sink).len(), 1);
    net.enqueue(near, sink, FlitClass::Data, 64, 3).unwrap();
    let mut order = Vec::new();
    while order.len() < 2 {
        assert!(net.now().raw() < 400, "flits never delivered");
        net.tick();
        order.extend(drain(&mut net, sink));
    }
    let tokens: Vec<u64> = order.iter().map(|f| f.token).collect();
    assert_eq!(tokens, [2, 3], "the tagged probe ejects first");
    assert_eq!(order[0].deflections, 1, "the probe circles exactly once");
    assert!(order[1].deflections >= 1, "the normal flit left the entry");
}

#[test]
fn starved_injector_gets_itag_and_progresses() {
    // Station 0 and 1 flood the ring clockwise toward station 6; the
    // device at station 5 (between them and the sink) competes for
    // slots that are mostly occupied.
    let (mut net, ids) = single_full_ring(12, &[0, 1, 5, 6]);
    let sink = ids[3];
    let mut victim_sent = 0;
    for _ in 0..3000 {
        // Aggressors keep their inject queues full.
        let _ = net.enqueue(ids[0], sink, FlitClass::Data, 64, 0);
        let _ = net.enqueue(ids[1], sink, FlitClass::Data, 64, 0);
        if victim_sent < 20
            && net
                .enqueue(ids[2], sink, FlitClass::Request, 64, 99)
                .is_ok()
        {
            victim_sent += 1;
        }
        net.tick();
        drain(&mut net, sink);
    }
    assert!(
        net.stats().itags_placed.get() > 0,
        "sustained competition must place I-tags"
    );
    // The victim's flits all made it out despite the flood.
    assert_eq!(victim_sent, 20);
}

#[test]
fn l1_bridge_crosses_rings() {
    let mut b = TopologyBuilder::new();
    let die = b.add_chiplet("die");
    let r0 = b.add_ring(die, RingKind::Full, 8).unwrap();
    let r1 = b.add_ring(die, RingKind::Full, 8).unwrap();
    let a = b.add_node("a", r0, 0).unwrap();
    let z = b.add_node("z", r1, 4).unwrap();
    b.add_bridge(BridgeConfig::l1(), r0, 2, r1, 6).unwrap();
    let mut net = Network::new(b.build().unwrap(), NetworkConfig::default());
    net.enqueue(a, z, FlitClass::Request, 64, 0).unwrap();
    for _ in 0..100 {
        net.tick();
    }
    let f = drain(&mut net, z).pop().expect("arrived");
    assert_eq!(f.ring_changes, 1);
    assert_eq!(net.stats().bridge_crossings.get(), 1);
}

#[test]
fn two_bridge_hops_across_three_rings() {
    let mut b = TopologyBuilder::new();
    let die = b.add_chiplet("die");
    let rings: Vec<_> = (0..3)
        .map(|_| b.add_ring(die, RingKind::Full, 6).unwrap())
        .collect();
    let a = b.add_node("a", rings[0], 0).unwrap();
    let z = b.add_node("z", rings[2], 3).unwrap();
    b.add_bridge(BridgeConfig::l1(), rings[0], 2, rings[1], 0)
        .unwrap();
    b.add_bridge(BridgeConfig::l1(), rings[1], 3, rings[2], 0)
        .unwrap();
    let mut net = Network::new(b.build().unwrap(), NetworkConfig::default());
    net.enqueue(a, z, FlitClass::Data, 64, 0).unwrap();
    for _ in 0..200 {
        net.tick();
    }
    let f = drain(&mut net, z).pop().expect("arrived");
    assert_eq!(f.ring_changes, 2);
}

#[test]
fn l2_bridge_adds_phy_latency() {
    let build = |latency: u32| {
        let mut b = TopologyBuilder::new();
        let d0 = b.add_chiplet("d0");
        let d1 = b.add_chiplet("d1");
        let r0 = b.add_ring(d0, RingKind::Full, 8).unwrap();
        let r1 = b.add_ring(d1, RingKind::Full, 8).unwrap();
        let a = b.add_node("a", r0, 0).unwrap();
        let z = b.add_node("z", r1, 4).unwrap();
        b.add_bridge(BridgeConfig::l2().with_latency(latency), r0, 2, r1, 6)
            .unwrap();
        (
            Network::new(b.build().unwrap(), NetworkConfig::default()),
            a,
            z,
        )
    };
    let latency_of = |lat: u32| {
        let (mut net, a, z) = build(lat);
        net.enqueue(a, z, FlitClass::Request, 64, 0).unwrap();
        let mut t = 0;
        loop {
            net.tick();
            t += 1;
            if net.pop_delivered(z).is_some() {
                return t;
            }
            assert!(t < 500, "flit lost");
        }
    };
    let fast = latency_of(2);
    let slow = latency_of(22);
    assert_eq!(slow - fast, 20, "PHY latency is additive");
}

/// Build the adversarial cross-ring saturation of paper Figure 9: two
/// rings, every device on ring A floods devices on ring B and vice
/// versa, with minimal buffering everywhere.
fn cross_ring_flood(swap: bool) -> (Network, Vec<NodeId>, Vec<NodeId>) {
    let mut b = TopologyBuilder::new();
    let d0 = b.add_chiplet("d0");
    let d1 = b.add_chiplet("d1");
    let r0 = b.add_ring(d0, RingKind::Full, 6).unwrap();
    let r1 = b.add_ring(d1, RingKind::Full, 6).unwrap();
    let a: Vec<_> = (0..4)
        .map(|i| b.add_node(format!("a{i}"), r0, i as u16).unwrap())
        .collect();
    let z: Vec<_> = (0..4)
        .map(|i| b.add_node(format!("z{i}"), r1, i as u16).unwrap())
        .collect();
    let cfg = BridgeConfig::l2()
        .with_latency(2)
        .with_buffer_cap(2)
        .with_width(1)
        .with_swap(swap)
        .with_deadlock_threshold(48)
        .with_reserved_cap(2);
    b.add_bridge(cfg, r0, 5, r1, 5).unwrap();
    let net_cfg = NetworkConfig {
        inject_queue_cap: 8,
        eject_queue_cap: 2,
        itag_threshold: 8,
    };
    (Network::new(b.build().unwrap(), net_cfg), a, z)
}

fn run_flood(net: &mut Network, a: &[NodeId], z: &[NodeId], cycles: u64) -> u64 {
    for rr in 0..cycles as usize {
        for (i, &src) in a.iter().enumerate() {
            let dst = z[(i + rr) % z.len()];
            let _ = net.enqueue(src, dst, FlitClass::Data, 64, 0);
        }
        for (i, &src) in z.iter().enumerate() {
            let dst = a[(i + rr) % a.len()];
            let _ = net.enqueue(src, dst, FlitClass::Data, 64, 0);
        }
        net.tick();
        for &n in a.iter().chain(z) {
            while net.pop_delivered(n).is_some() {}
        }
    }
    net.stats().delivered.get()
}

#[test]
fn swap_keeps_cross_ring_flood_flowing() {
    let (mut net, a, z) = cross_ring_flood(true);
    let delivered = run_flood(&mut net, &a, &z, 20_000);
    assert!(
        delivered > 1000,
        "SWAP-armed network must make steady progress, got {delivered}"
    );
    // The adversarial pattern must actually have exercised the machinery.
    assert!(net.stats().drm_entries.get() > 0, "deadlock never detected");
    assert!(net.stats().swaps.get() > 0, "no SWAP performed");
}

#[test]
fn without_swap_cross_ring_flood_wedges() {
    let (mut net, a, z) = cross_ring_flood(false);
    let first = run_flood(&mut net, &a, &z, 10_000);
    let second = run_flood(&mut net, &a, &z, 10_000) - first;
    // After the deadlock forms, throughput in the second half collapses.
    let (mut net2, a2, z2) = cross_ring_flood(true);
    let first_swap = run_flood(&mut net2, &a2, &z2, 10_000);
    let second_swap = run_flood(&mut net2, &a2, &z2, 10_000) - first_swap;
    assert!(
        second_swap > second * 5,
        "swap={second_swap} vs no-swap={second}: SWAP must massively outperform once wedged"
    );
}

#[test]
fn deterministic_same_inputs_same_stats() {
    let run = || {
        let (mut net, ids) = single_full_ring(10, &[0, 3, 6, 9]);
        for i in 0..500u64 {
            let s = ids[(i % 4) as usize];
            let d = ids[((i + 2) % 4) as usize];
            let _ = net.enqueue(s, d, FlitClass::Data, 64, i);
            net.tick();
            for &n in &ids {
                while net.pop_delivered(n).is_some() {}
            }
        }
        (
            net.stats().delivered.get(),
            net.stats().deflections.get(),
            net.stats().mean_total_latency(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn enqueue_validation() {
    let (mut net, ids) = single_full_ring(8, &[0, 4]);
    use noc_core::EnqueueError;
    assert!(matches!(
        net.enqueue(ids[0], ids[0], FlitClass::Request, 64, 0),
        Err(EnqueueError::SelfSend { .. })
    ));
    assert!(matches!(
        net.enqueue(NodeId(99), ids[0], FlitClass::Request, 64, 0),
        Err(EnqueueError::UnknownNode { .. })
    ));
    // Fill the inject queue.
    for _ in 0..net.config().inject_queue_cap {
        net.enqueue(ids[0], ids[1], FlitClass::Request, 64, 0)
            .unwrap();
    }
    assert!(matches!(
        net.enqueue(ids[0], ids[1], FlitClass::Request, 64, 0),
        Err(EnqueueError::InjectQueueFull { .. })
    ));
}

#[test]
fn bridge_endpoints_not_addressable() {
    let mut b = TopologyBuilder::new();
    let d0 = b.add_chiplet("d0");
    let d1 = b.add_chiplet("d1");
    let r0 = b.add_ring(d0, RingKind::Full, 4).unwrap();
    let r1 = b.add_ring(d1, RingKind::Full, 4).unwrap();
    let a = b.add_node("a", r0, 0).unwrap();
    let _z = b.add_node("z", r1, 0).unwrap();
    let br = b.add_bridge(BridgeConfig::l2(), r0, 2, r1, 2).unwrap();
    let topo = b.build().unwrap();
    let endpoint = topo.bridges()[br.index()].a;
    let mut net = Network::new(topo, NetworkConfig::default());
    assert!(matches!(
        net.enqueue(a, endpoint, FlitClass::Request, 64, 0),
        Err(noc_core::EnqueueError::NotAddressable { .. })
    ));
}

#[test]
fn flit_conservation_under_random_traffic() {
    let (mut net, ids) = single_full_ring(16, &[0, 2, 4, 6, 8, 10, 12, 14]);
    let mut sent = 0u64;
    let mut received = 0u64;
    for i in 0..2000u64 {
        let s = ids[(i % 8) as usize];
        let d = ids[((i * 3 + 1) % 8) as usize];
        if s != d && net.enqueue(s, d, FlitClass::Data, 64, i).is_ok() {
            sent += 1;
        }
        net.tick();
        for &n in &ids {
            while net.pop_delivered(n).is_some() {
                received += 1;
            }
        }
    }
    for _ in 0..2000 {
        net.tick();
        for &n in &ids {
            while net.pop_delivered(n).is_some() {
                received += 1;
            }
        }
    }
    assert_eq!(sent, received, "no flit lost or duplicated");
    assert_eq!(net.in_flight(), 0);
}
