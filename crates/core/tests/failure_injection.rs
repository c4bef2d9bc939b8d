//! Failure-injection tests: stalled consumers, bursty producers and
//! pathological patterns. The bufferless design must degrade gracefully
//! (deflect, reserve, retry) and recover completely — never drop,
//! duplicate or wedge.

use noc_core::drive::{drain, Verdict::Drained};
use noc_core::{
    BridgeConfig, FlitClass, Network, NetworkConfig, NodeId, RingKind, TopologyBuilder,
};

fn ring_with(nodes: u16, eject_cap: usize) -> (Network, Vec<NodeId>) {
    let mut b = TopologyBuilder::new();
    let die = b.add_chiplet("die");
    let r = b.add_ring(die, RingKind::Full, nodes).unwrap();
    let ids = (0..nodes)
        .map(|i| b.add_node(format!("n{i}"), r, i).unwrap())
        .collect();
    let cfg = NetworkConfig {
        eject_queue_cap: eject_cap,
        ..NetworkConfig::default()
    };
    (Network::new(b.build().unwrap(), cfg), ids)
}

#[test]
fn consumer_stall_and_recovery() {
    // The sink stops draining mid-run (a hung device); traffic keeps
    // flowing elsewhere, and once the sink resumes everything delivers.
    let (mut net, ids) = ring_with(10, 2);
    let sink = ids[9];
    let bystander = ids[4];
    let mut sent_sink = 0u64;
    let mut sent_by = 0u64;
    let mut got_by = 0u64;
    for cycle in 0..6_000u64 {
        if net.enqueue(ids[0], sink, FlitClass::Data, 64, 0).is_ok() {
            sent_sink += 1;
        }
        if net
            .enqueue(ids[1], bystander, FlitClass::Request, 64, 1)
            .is_ok()
        {
            sent_by += 1;
        }
        net.tick();
        // The sink is stalled between cycles 1000 and 4000.
        if !(1_000..4_000).contains(&cycle) {
            while net.pop_delivered(sink).is_some() {}
        }
        while net.pop_delivered(bystander).is_some() {
            got_by += 1;
        }
    }
    let verdict = drain(&mut net, 20_000, |net| {
        while net.pop_delivered(sink).is_some() {}
        while net.pop_delivered(bystander).is_some() {
            got_by += 1;
        }
        Ok(())
    });
    assert!(matches!(verdict, Ok(Drained(_))), "recovery: {verdict:?}");
    assert_eq!(net.stats().delivered.get(), sent_sink + sent_by);
    assert_eq!(got_by, sent_by, "bystander traffic unaffected by the stall");
    assert!(
        net.stats().etags_placed.get() > 0,
        "the stall must have exercised E-tag reservations"
    );
}

#[test]
fn all_consumers_stall_then_resume() {
    // Everybody stops draining: the network fills up and holds state
    // (no loss); on resume it drains to empty.
    let (mut net, ids) = ring_with(8, 2);
    let mut sent = 0u64;
    for _ in 0..500 {
        for (i, &src) in ids.iter().enumerate() {
            let dst = ids[(i + 3) % ids.len()];
            if net.enqueue(src, dst, FlitClass::Data, 64, 0).is_ok() {
                sent += 1;
            }
        }
        net.tick(); // nobody drains
    }
    assert!(net.in_flight() > 0);
    let verdict = drain(&mut net, 50_000, |net| {
        for &n in &ids {
            while net.pop_delivered(n).is_some() {}
        }
        Ok(())
    });
    assert!(matches!(verdict, Ok(Drained(_))), "{verdict:?}");
    assert_eq!(
        net.stats().delivered.get(),
        sent,
        "nothing lost during the freeze"
    );
}

#[test]
fn bridge_consumer_stall_recovers_cross_ring() {
    // Cross-ring traffic with the remote consumer stalled: flits pile
    // into bridge buffers and deflect; on resume everything delivers.
    let mut b = TopologyBuilder::new();
    let d0 = b.add_chiplet("d0");
    let d1 = b.add_chiplet("d1");
    let r0 = b.add_ring(d0, RingKind::Full, 6).unwrap();
    let r1 = b.add_ring(d1, RingKind::Full, 6).unwrap();
    let src = b.add_node("src", r0, 0).unwrap();
    let dst = b.add_node("dst", r1, 2).unwrap();
    b.add_bridge(BridgeConfig::l2().with_buffer_cap(2), r0, 5, r1, 5)
        .unwrap();
    let mut net = Network::new(
        b.build().unwrap(),
        NetworkConfig {
            eject_queue_cap: 2,
            ..NetworkConfig::default()
        },
    );
    let mut sent = 0u64;
    for _ in 0..2_000 {
        if net.enqueue(src, dst, FlitClass::Data, 64, 0).is_ok() {
            sent += 1;
        }
        net.tick(); // dst never drained during this phase
    }
    let mut got = 0u64;
    let verdict = drain(&mut net, 50_000, |net| {
        while net.pop_delivered(dst).is_some() {
            got += 1;
        }
        Ok(())
    });
    assert!(matches!(verdict, Ok(Drained(_))), "{verdict:?}");
    assert_eq!(got, sent);
}

#[test]
fn adversarial_single_slot_contention() {
    // Every node targets its immediate clockwise neighbour on a tiny
    // ring: maximal injection contention per slot. Must stay fair (all
    // sources complete similar counts).
    let (mut net, ids) = ring_with(4, 4);
    let mut per_src = vec![0u64; 4];
    for _ in 0..8_000u64 {
        for (i, &src) in ids.iter().enumerate() {
            let _ = net.enqueue(src, ids[(i + 1) % 4], FlitClass::Data, 64, i as u64);
        }
        net.tick();
        for &n in &ids {
            while let Some(f) = net.pop_delivered(n) {
                per_src[f.src.index()] += 1;
            }
        }
    }
    let max = *per_src.iter().max().unwrap() as f64;
    let min = *per_src.iter().min().unwrap() as f64;
    assert!(
        min / max > 0.7,
        "fairness: per-source completions {per_src:?}"
    );
}
