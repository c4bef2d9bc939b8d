//! Deterministic SWAP/DRM regression: a bounded transaction set that
//! drives an RBRG-L2's Tx buffers into mutual backpressure, forcing
//! deadlock resolution mode and SWAPs — and still delivers every flit.
//!
//! Unlike the open-loop flood in `behaviour.rs` (which measures
//! throughput under sustained overload), this test enqueues a *finite*
//! workload and asserts the strongest end-to-end property the paper
//! claims for §4.4: after DRM + SWAP break the cyclic dependency, the
//! network fully drains — enqueued == delivered, nothing resident.

use noc_core::drive::{drain, Verdict::Drained};
use noc_core::{
    BridgeConfig, FlitClass, Network, NetworkConfig, NodeId, RingKind, TopologyBuilder,
};

/// Two chiplets, one full ring each, joined by a deliberately weak L2
/// bridge (1-flit pipe, low DRM threshold) with tiny eject queues.
fn two_chiplet_net() -> (Network, Vec<NodeId>, Vec<NodeId>) {
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
        .with_buffer_cap(1)
        .with_width(1)
        .with_swap(true)
        .with_deadlock_threshold(32)
        .with_reserved_cap(2);
    b.add_bridge(cfg, r0, 5, r1, 5).unwrap();
    let net_cfg = NetworkConfig {
        inject_queue_cap: 8,
        eject_queue_cap: 2,
        itag_threshold: 8,
    };
    (Network::new(b.build().unwrap(), net_cfg), a, z)
}

#[test]
fn drm_swap_resolves_mutual_backpressure_and_delivers_everything() {
    let (mut net, a, z) = two_chiplet_net();

    // Phase 1 — build mutual backpressure: every device offers
    // cross-ring traffic each cycle and nobody drains deliveries, so
    // both bridge endpoints wedge against full eject queues on the far
    // side. Stop offering the moment DRM has entered and SWAPped —
    // from then on the workload is a fixed, finite flit set.
    let mut token = 0u64;
    for cycle in 0..5_000u64 {
        for (i, &src) in a.iter().enumerate() {
            let dst = z[(i + cycle as usize) % z.len()];
            if net.enqueue(src, dst, FlitClass::Data, 64, token).is_ok() {
                token += 1;
            }
        }
        for (i, &src) in z.iter().enumerate() {
            let dst = a[(i + cycle as usize) % a.len()];
            if net.enqueue(src, dst, FlitClass::Data, 64, token).is_ok() {
                token += 1;
            }
        }
        net.tick();
        if net.stats().drm_entries.get() > 0 && net.stats().swaps.get() > 0 {
            break;
        }
    }
    assert!(
        net.stats().drm_entries.get() > 0,
        "mutual backpressure never tripped deadlock detection"
    );
    assert!(net.stats().swaps.get() > 0, "DRM never performed a SWAP");

    // Phase 2 — drain: devices consume deliveries every cycle; the
    // bounded workload must fully leave the network.
    let total = net.stats().enqueued.get();
    assert!(total > 0);
    let verdict = drain(&mut net, 20_000, |net| {
        for &n in a.iter().chain(&z) {
            while net.pop_delivered(n).is_some() {}
        }
        Ok(())
    });
    assert_eq!(
        net.stats().delivered.get(),
        total,
        "flits lost or wedged: {} of {} delivered, {} in flight",
        net.stats().delivered.get(),
        total,
        net.in_flight()
    );
    assert!(matches!(verdict, Ok(Drained(_))), "{verdict:?}");
    assert_eq!(
        net.count_resident_flits(),
        0,
        "network drained but flits remain resident"
    );
}
