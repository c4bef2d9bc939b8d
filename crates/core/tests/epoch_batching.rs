//! Epoch engine edge cases: `tick_epoch(k)` must validate its bound
//! with typed errors, one-cycle epochs on the worker pool must replay
//! the calling thread's bit for bit, and — when traffic is applied only
//! at epoch boundaries — one K-cycle epoch must replay K one-cycle
//! epochs at any K up to the bridge-latency bound, on the calling
//! thread and on the pool alike.
//!
//! The last property is phrased where it matters most: same-flow flits
//! must be delivered in the same order under one long epoch as under
//! per-cycle ticking (a proptest over random two-ring fabrics and
//! schedules), with the full stats fingerprint as a stricter backstop.

use std::collections::BTreeMap;

mod common;

use common::{chain_topology, digest, Rng};
use noc_core::telemetry::RingBufferSink;
use noc_core::{
    BridgeConfig, EngineError, ExecMode, FlitClass, Network, NetworkConfig, NodeId, RingKind,
    TickMode, Topology, TopologyBuilder,
};
use proptest::prelude::*;

/// Two full rings joined by one bridge of the given latency, two
/// devices per ring.
fn two_ring(latency: u32) -> (Topology, Vec<NodeId>) {
    let mut b = TopologyBuilder::new();
    let d0 = b.add_chiplet("d0");
    let d1 = b.add_chiplet("d1");
    let r0 = b.add_ring(d0, RingKind::Full, 8).unwrap();
    let r1 = b.add_ring(d1, RingKind::Full, 8).unwrap();
    let mut devs = Vec::new();
    for (i, &r) in [r0, r1].iter().enumerate() {
        devs.push(b.add_node(format!("a{i}"), r, 1).unwrap());
        devs.push(b.add_node(format!("b{i}"), r, 4).unwrap());
    }
    b.add_bridge(BridgeConfig::l2().with_latency(latency), r0, 6, r1, 6)
        .unwrap();
    (b.build().unwrap(), devs)
}

#[test]
fn epoch_bounds_are_typed_errors() {
    let (topo, devs) = two_ring(3);
    let mut net = Network::new(topo, NetworkConfig::default());
    assert_eq!(net.max_epoch(), 3);

    match net.tick_epoch(0) {
        Err(EngineError::EmptyEpoch) => {}
        other => panic!("k = 0 must be EmptyEpoch, got {other:?}"),
    }
    match net.tick_epoch(4) {
        Err(EngineError::EpochTooLong {
            requested: 4,
            max: 3,
        }) => {}
        other => panic!("k = 4 must be EpochTooLong, got {other:?}"),
    }
    // Rejected epochs must not advance time or touch state.
    assert_eq!(net.now().raw(), 0);
    net.enqueue(devs[0], devs[2], FlitClass::Data, 64, 1)
        .unwrap();
    net.tick_epoch(3).expect("k = max_epoch is legal");
    assert_eq!(net.now().raw(), 3);

    // A bridgeless fabric has no pipeline to outrun: any K is legal.
    let mut b = TopologyBuilder::new();
    let die = b.add_chiplet("die");
    let r = b.add_ring(die, RingKind::Full, 8).unwrap();
    let a = b.add_node("a", r, 0).unwrap();
    let z = b.add_node("z", r, 4).unwrap();
    let mut lone = Network::new(b.build().unwrap(), NetworkConfig::default());
    assert_eq!(lone.max_epoch(), u64::MAX);
    lone.enqueue(a, z, FlitClass::Data, 64, 1).unwrap();
    lone.tick_epoch(64).unwrap();
    assert_eq!(lone.now().raw(), 64);
    assert!(lone.pop_delivered(z).is_some());
}

/// One-cycle epochs scattered over the worker pool must be the calling
/// thread's tick, bit for bit: same delivery stream, same stats
/// fingerprint, same telemetry record stream — on pinned seeds rotating
/// through the parallel thread counts. `tick()` *is* `tick_epoch(1)`,
/// so on the calling thread the comparison would be a path against
/// itself; the seeds that used to make it (0, 4, 8) are pinned against
/// cross-commit constants in `engine_goldens.rs` instead.
#[test]
fn one_cycle_epochs_on_the_pool_match_the_calling_thread_on_pinned_seeds() {
    for seed in (0..10u64).filter(|s| s % 4 != 0) {
        let mut rng = Rng(seed.wrapping_mul(0xd605_0bb5_9b44_2b5d) ^ 0x1c69_b3f7_4ac4_ab57);
        let (topo, devs) = chain_topology(&mut rng);
        let cfg = NetworkConfig::default();
        let sink = || RingBufferSink::new(1 << 20);
        let exec = [
            ExecMode::Parallel(2),
            ExecMode::Parallel(4),
            ExecMode::Parallel(8),
        ][(seed % 4 - 1) as usize];
        let mut ticked = Network::with_exec(
            topo.clone(),
            cfg.clone(),
            TickMode::Fast,
            ExecMode::Sequential,
            sink(),
        );
        let mut epoched = Network::with_exec(topo, cfg, TickMode::Fast, exec, sink());

        let mut token = 0u64;
        for cycle in 0..400u64 {
            if cycle < 250 {
                for si in 0..devs.len() {
                    if rng.below(3) != 0 {
                        continue;
                    }
                    let di = (si + 1 + rng.below(devs.len() as u64 - 1) as usize) % devs.len();
                    token += 1;
                    let a = ticked.enqueue(devs[si], devs[di], FlitClass::Data, 64, token);
                    let b = epoched.enqueue(devs[si], devs[di], FlitClass::Data, 64, token);
                    assert_eq!(
                        a.is_ok(),
                        b.is_ok(),
                        "seed {seed} cycle {cycle}: enqueue diverged"
                    );
                }
            }
            ticked.tick();
            epoched.tick_epoch(1).expect("k = 1 is always legal");
            for &d in &devs {
                loop {
                    let (a, b) = (ticked.pop_delivered(d), epoched.pop_delivered(d));
                    match (&a, &b) {
                        (None, None) => break,
                        (Some(fa), Some(fb)) => assert_eq!(
                            digest(fa),
                            digest(fb),
                            "seed {seed} cycle {cycle}: stream diverged at {d:?}"
                        ),
                        _ => {
                            panic!("seed {seed} cycle {cycle}: delivery presence diverged at {d:?}")
                        }
                    }
                }
            }
        }
        assert_eq!(
            ticked.stats().fingerprint(),
            epoched.stats().fingerprint(),
            "seed {seed}: fingerprint diverged ({exec:?})"
        );
        assert!(
            ticked.stats().delivered.get() > 0,
            "seed {seed}: nothing was delivered"
        );
        assert!(
            ticked.into_sink().to_vec() == epoched.into_sink().to_vec(),
            "seed {seed}: telemetry record streams diverged ({exec:?})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Epoch boundaries never reorder same-flow delivery: with traffic
    /// applied only at epoch-aligned cycles, every flow's delivered
    /// token sequence under `tick_epoch(k)` — sequential *and* parallel
    /// — equals the per-cycle engine's, and the stats fingerprints
    /// match exactly.
    #[test]
    fn epoch_boundaries_never_reorder_same_flow_delivery(
        seed in any::<u64>(),
        k in 2u64..9,
        threads in 2usize..5,
        steps in 20u64..60,
    ) {
        let mut rng = Rng(seed ^ 0xe703_7ed1_a359_7b93);
        let (topo, devs) = two_ring(8); // latency 8 admits every sampled k
        let cfg = NetworkConfig::default();
        let mut nets = [
            Network::with_exec(topo.clone(), cfg.clone(), TickMode::Fast, ExecMode::Sequential,
                noc_core::telemetry::NullSink),
            Network::with_exec(topo.clone(), cfg.clone(), TickMode::Fast, ExecMode::Sequential,
                noc_core::telemetry::NullSink),
            Network::with_exec(topo, cfg, TickMode::Fast, ExecMode::Parallel(threads),
                noc_core::telemetry::NullSink),
        ];
        prop_assert!(k <= nets[0].max_epoch());

        // flows[n]: (src, dst) -> delivered token sequence for net n.
        let mut flows: [BTreeMap<(NodeId, NodeId), Vec<u64>>; 3] = Default::default();
        let mut token = 0u64;
        for step in 0..steps + 2_000 {
            if step < steps {
                for si in 0..devs.len() {
                    if rng.below(2) != 0 {
                        continue;
                    }
                    let di = (si + 1 + rng.below(devs.len() as u64 - 1) as usize) % devs.len();
                    token += 1;
                    let ok: Vec<bool> = nets
                        .iter_mut()
                        .map(|n| n.enqueue(devs[si], devs[di], FlitClass::Data, 64, token).is_ok())
                        .collect();
                    prop_assert!(ok[0] == ok[1] && ok[1] == ok[2],
                        "step {step}: enqueue outcome diverged {ok:?}");
                }
            }
            // One epoch on every net; the baseline takes it one cycle
            // at a time.
            for _ in 0..k {
                nets[0].tick();
            }
            nets[1].tick_epoch(k).expect("k within bound");
            nets[2].tick_epoch(k).expect("k within bound");
            for &d in &devs {
                for (n, fl) in nets.iter_mut().zip(flows.iter_mut()) {
                    while let Some(f) = n.pop_delivered(d) {
                        fl.entry((f.src, f.dst)).or_default().push(f.token);
                    }
                }
            }
            if step >= steps && nets.iter().all(|n| n.in_flight() == 0) {
                break;
            }
        }
        prop_assert!(nets.iter().all(|n| n.in_flight() == 0), "failed to drain");
        prop_assert!(nets[0].stats().delivered.get() > 0, "nothing was delivered");
        prop_assert_eq!(&flows[0], &flows[1], "sequential epochs reordered a flow (k={})", k);
        prop_assert_eq!(&flows[0], &flows[2],
            "parallel({}) epochs reordered a flow (k={})", threads, k);
        let fp = nets.each_ref().map(|n| n.stats().fingerprint());
        prop_assert_eq!(&fp[0], &fp[1], "sequential epoch fingerprint diverged");
        prop_assert_eq!(&fp[0], &fp[2], "parallel epoch fingerprint diverged");
    }
}
