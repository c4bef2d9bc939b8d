//! The delivery index (DESIGN.md §22): `Network::nodes_with_deliveries`
//! yields exactly the devices with mail waiting, in ring order, after
//! anything the public API can do — partial drains that leave a mark
//! set, a pop at a bridge endpoint, a clone mid-run, long epochs. Each
//! check compares against a brute-force filter over every device; debug
//! builds additionally run `debug_check_delivered` on every shard every
//! cycle.

mod common;

use common::{random_topology, Rng};
use noc_core::telemetry::TraceSink;
use noc_core::topogen::GridParams;
use noc_core::{
    BridgeConfig, FlitClass, Network, NetworkConfig, NodeId, RingKind, TopologyBuilder,
};
use proptest::prelude::*;

/// What the index must say: every device with a non-empty Eject Queue,
/// ordered by ring, then by id.
fn brute_force<S: TraceSink>(net: &Network<S>) -> Vec<NodeId> {
    let mut devs: Vec<_> = net
        .topology()
        .devices()
        .filter(|d| net.delivered_len(d.id) > 0)
        .map(|d| (d.ring, d.id))
        .collect();
    devs.sort_unstable();
    devs.into_iter().map(|(_, id)| id).collect()
}

fn assert_exact<S: TraceSink>(net: &Network<S>, when: &str) {
    assert_eq!(
        net.nodes_with_deliveries().collect::<Vec<_>>(),
        brute_force(net),
        "{when}: the index disagrees with the Eject Queues"
    );
}

/// Enqueue from each of `devs` with probability 1/`one_in` to a random
/// other device.
fn offer<S: TraceSink>(
    net: &mut Network<S>,
    devs: &[NodeId],
    rng: &mut Rng,
    one_in: u64,
    tag: u64,
) {
    for si in 0..devs.len() {
        if rng.below(one_in) != 0 {
            continue;
        }
        let di = (si + 1 + rng.below(devs.len() as u64 - 1) as usize) % devs.len();
        let _ = net.enqueue(devs[si], devs[di], FlitClass::Data, 64, tag);
    }
}

/// Pop a random number of flits — possibly none, possibly all — from
/// every device the index reports, so some marks survive the drain.
fn drain_some<S: TraceSink>(net: &mut Network<S>, rng: &mut Rng) {
    let mail: Vec<NodeId> = net.nodes_with_deliveries().collect();
    for d in mail {
        for _ in 0..rng.below(net.delivered_len(d) as u64 + 1) {
            assert!(net.pop_delivered(d).is_some(), "{d} reported with mail");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random fabric × load × epoch length, consumers
    /// draining only part of their mail: after every epoch and every
    /// drain the index equals the brute-force filter.
    #[test]
    fn the_index_is_exactly_the_devices_with_mail(
        seed in any::<u64>(),
        one_in in 1u64..6,
        long_epochs in any::<bool>(),
    ) {
        let mut rng = Rng(seed);
        let (topo, devs) = random_topology(&mut rng);
        let mut net = Network::new(topo, NetworkConfig::default());
        let k = if long_epochs { net.max_epoch() } else { 1 };
        let mut marked_left = 0u64;
        for step in 0..1_200 / k {
            if step * k < 600 {
                offer(&mut net, &devs, &mut rng, one_in, step);
            }
            net.tick_epoch(k).expect("k bounded by max_epoch");
            assert_exact(&net, "after an epoch");
            drain_some(&mut net, &mut rng);
            assert_exact(&net, "after a partial drain");
            marked_left += net.nodes_with_deliveries().count() as u64;
        }
        prop_assert!(net.stats().delivered.get() > 0, "nothing was delivered");
        prop_assert!(marked_left > 0, "no drain ever left mail behind");
    }
}

#[test]
fn a_pop_at_a_bridge_endpoint_leaves_the_index_exact() {
    // A one-flit pipeline with a long latency: the first flit fills it,
    // the second waits in the bridge endpoint's Eject Queue.
    let mut b = TopologyBuilder::new();
    let d0 = b.add_chiplet("d0");
    let d1 = b.add_chiplet("d1");
    let r0 = b.add_ring(d0, RingKind::Full, 8).unwrap();
    let r1 = b.add_ring(d1, RingKind::Full, 8).unwrap();
    let src = b.add_node("src", r0, 1).unwrap();
    let near = b.add_node("near", r0, 4).unwrap();
    let dst = b.add_node("dst", r1, 4).unwrap();
    b.add_bridge(
        BridgeConfig::l2().with_latency(40).with_buffer_cap(1),
        r0,
        6,
        r1,
        6,
    )
    .unwrap();
    let topo = b.build().unwrap();
    let endpoint = topo.bridges()[0].a;
    let mut net = Network::new(topo, NetworkConfig::default());
    for token in 0..2 {
        net.enqueue(src, dst, FlitClass::Data, 64, token).unwrap();
    }
    net.enqueue(src, near, FlitClass::Data, 64, 9).unwrap();
    while net.delivered_len(endpoint) == 0 || net.delivered_len(near) == 0 {
        assert!(
            net.now().raw() < 30,
            "the bridge or `near` never got its flit"
        );
        net.tick();
        assert_exact(&net, "loading the bridge");
    }
    assert_eq!(net.nodes_with_deliveries().collect::<Vec<_>>(), [near]);
    assert_eq!(net.pop_delivered(endpoint).map(|f| f.token), Some(1));
    assert_exact(&net, "after the bridge-endpoint pop");
    assert_eq!(net.pop_delivered(near).map(|f| f.token), Some(9));
    assert_exact(&net, "after the device pop");
    for _ in 0..80 {
        net.tick();
        assert_exact(&net, "draining the pipeline");
    }
    assert_eq!(net.nodes_with_deliveries().collect::<Vec<_>>(), [dst]);
    assert_eq!(net.pop_delivered(dst).map(|f| f.token), Some(0));
    assert_eq!(net.nodes_with_deliveries().count(), 0);
}

#[test]
fn a_clone_taken_mid_run_carries_the_index() {
    let (topo, devs) = {
        let (topo, names) = GridParams::torus(3, 3)
            .with_stations(10)
            .with_devices(2)
            .generate()
            .expect("3x3 torus generates")
            .compile()
            .expect("generated spec compiles");
        let mut devs: Vec<NodeId> = names.into_values().collect();
        devs.sort_unstable();
        (topo, devs)
    };
    let mut net = Network::new(topo, NetworkConfig::default());
    let mut rng = Rng(0x0de1_1e7e);
    for step in 0..200 {
        offer(&mut net, &devs, &mut rng, 3, step);
        net.tick();
        drain_some(&mut net, &mut rng);
    }
    assert!(
        net.nodes_with_deliveries().count() > 0,
        "the clone must catch marks set"
    );
    let mut copy = net.clone();
    for step in 200..1_200 {
        if step < 400 {
            let mut twin = Rng(rng.0);
            offer(&mut net, &devs, &mut rng, 3, step);
            offer(&mut copy, &devs, &mut twin, 3, step);
        }
        net.tick();
        copy.tick();
        assert_eq!(
            copy.nodes_with_deliveries().collect::<Vec<_>>(),
            net.nodes_with_deliveries().collect::<Vec<_>>(),
            "step {step}: the clone's index diverged"
        );
        assert_exact(&copy, "the clone");
        let mut twin = Rng(rng.0);
        drain_some(&mut net, &mut rng);
        drain_some(&mut copy, &mut twin);
    }
    assert_eq!(net.in_flight(), 0, "failed to drain");
    assert_eq!(net.fingerprint(), copy.fingerprint());
}

#[test]
fn an_idle_torus_reports_no_mail() {
    let (topo, _) = GridParams::torus(8, 8)
        .with_stations(16)
        .with_devices(4)
        .generate()
        .expect("8x8 torus generates")
        .compile()
        .expect("generated spec compiles");
    let mut net = Network::new(topo, NetworkConfig::default());
    for _ in 0..1_000 {
        net.tick();
        assert_eq!(net.nodes_with_deliveries().next(), None);
    }
}
