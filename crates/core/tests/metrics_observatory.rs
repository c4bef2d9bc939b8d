//! Observatory correctness: the online metrics snapshot stream must be
//! (a) exact — window counter deltas sum to the run's `NetStats`
//! totals, counter for counter — and (b) deterministic — byte-identical
//! JSONL across two fresh runs.
//!
//! Plus the watchdog regression pair: the liveness rule must fire when
//! ejection is artificially wedged, and must stay silent on workloads
//! that drain.

mod common;

use common::{drive_mixed, random_case, random_topology, Rng};
use noc_core::telemetry::{snapshots_jsonl, HealthRule, WindowCounters};
use noc_core::{
    FlitClass, NetStats, Network, NetworkConfig, NodeId, RingKind, Topology, TopologyBuilder,
};

const SAMPLE_PERIOD: u64 = 32;

/// Drive one observatory-enabled network to full drain with a
/// deterministic traffic pattern, finishing the metrics series.
fn run_observed(
    topo: Topology,
    cfg: NetworkConfig,
    devices: &[NodeId],
    traffic_seed: u64,
) -> Network {
    let mut net = Network::new(topo, cfg);
    net.enable_metrics(SAMPLE_PERIOD);
    drive_mixed(&mut net, devices, traffic_seed);
    net.finish_metrics();
    net
}

/// `NetStats` counters in `WindowCounters` shape, so reconciliation can
/// compare field-for-field through the shared `fields()` naming.
fn stats_as_counters(s: &NetStats) -> WindowCounters {
    WindowCounters {
        enqueued: s.enqueued.get(),
        injected: s.injected.get(),
        inject_losses: s.inject_losses.get(),
        delivered: s.delivered.get(),
        delivered_bytes: s.delivered_bytes.get(),
        deflections: s.deflections.get(),
        itags_placed: s.itags_placed.get(),
        etags_placed: s.etags_placed.get(),
        drm_entries: s.drm_entries.get(),
        swaps: s.swaps.get(),
        bridge_crossings: s.bridge_crossings.get(),
    }
}

/// Window sums must equal `NetStats` exactly: nothing sampled twice,
/// nothing dropped between windows.
fn reconcile(net: &Network, ctx: &str) {
    let reg = net.metrics().expect("observatory enabled");
    assert!(!reg.is_empty(), "{ctx}: no snapshots committed");
    let mut acc = WindowCounters::default();
    for snap in reg.snapshots() {
        acc.add(&snap.totals);
        // Per-snapshot internal consistency: ring shares sum to totals.
        let mut ring_sum = WindowCounters::default();
        for ring in &snap.rings {
            ring_sum.add(&ring.counters);
        }
        assert_eq!(ring_sum, snap.totals, "{ctx}: ring shares != totals");
    }
    let expected = stats_as_counters(&net.stats());
    for ((name, got), (_, want)) in acc.fields().iter().zip(expected.fields().iter()) {
        assert_eq!(got, want, "{ctx}: window sums diverge on `{name}`");
    }
    assert_eq!(acc, reg.summed(), "{ctx}: registry cumulative mismatch");
    let last = reg.last().expect("non-empty");
    assert_eq!(last.cumulative, acc, "{ctx}: last cumulative mismatch");
    assert_eq!(
        last.in_flight,
        net.in_flight(),
        "{ctx}: in-flight gauge mismatch"
    );
}

#[test]
fn snapshots_reconcile_and_are_byte_identical_across_modes_on_20_seeds() {
    for seed in 0..20u64 {
        let (topo, devices, cfg, traffic_seed) = random_case(seed);

        let mut baseline: Option<(String, Vec<u64>)> = None;
        for run in 0..2 {
            let ctx = format!("seed {seed} run {run}");
            let net = run_observed(topo.clone(), cfg.clone(), &devices, traffic_seed);
            assert!(
                net.stats().delivered.get() > 0,
                "{ctx}: nothing was delivered"
            );
            reconcile(&net, &ctx);
            let jsonl = snapshots_jsonl(net.metrics().expect("enabled").snapshots());
            let fp = net.stats().fingerprint();
            match &baseline {
                None => baseline = Some((jsonl, fp)),
                Some((base_jsonl, base_fp)) => {
                    assert_eq!(
                        base_fp, &fp,
                        "{ctx}: NetStats fingerprint diverged from run 0"
                    );
                    assert_eq!(
                        base_jsonl, &jsonl,
                        "{ctx}: snapshot JSONL diverged from run 0"
                    );
                }
            }
        }
    }
}

/// Two devices on one small ring; the destination never drains its
/// eject queue, so once it fills every arrival deflects forever:
/// in-flight stays positive while deliveries flatline. The liveness
/// watchdog must call it.
#[test]
fn liveness_stall_fires_when_ejection_is_wedged() {
    let mut b = TopologyBuilder::new();
    let die = b.add_chiplet("die0");
    let ring = b.add_ring(die, RingKind::Full, 8).expect("ring");
    let src = b.add_node("src", ring, 0).expect("src");
    let dst = b.add_node("dst", ring, 4).expect("dst");
    let mut net = Network::new(
        b.build().expect("topology"),
        NetworkConfig {
            eject_queue_cap: 2,
            ..NetworkConfig::default()
        },
    );
    net.enable_metrics(32);
    // More flits than the eject queue holds; never pop a single one.
    for token in 0..8u64 {
        while net
            .enqueue(src, dst, FlitClass::Request, 64, token)
            .is_err()
        {
            net.tick();
        }
    }
    for _ in 0..2_000 {
        net.tick();
    }
    net.finish_metrics();
    assert!(net.in_flight() > 0, "flits must still be circulating");
    let monitor = net.health().expect("observatory enabled");
    assert!(!monitor.is_healthy(), "wedged run must not report healthy");
    assert!(
        monitor
            .verdicts()
            .iter()
            .any(|v| v.rule == HealthRule::LivenessStall),
        "liveness watchdog did not fire:\n{}",
        net.health_report()
    );
}

/// The same watchdog must stay silent on workloads that drain — over
/// every random seed of the reconciliation sweep.
#[test]
fn liveness_never_fires_on_draining_workloads() {
    for seed in 0..20u64 {
        let mut rng = Rng(seed.wrapping_mul(0x5851_f42d_4c95_7f2d) ^ 0xa076_1d64_78bd_642f);
        let (topo, devices) = random_topology(&mut rng);
        let cfg = NetworkConfig::default();
        let traffic_seed = rng.next();
        let net = run_observed(topo, cfg, &devices, traffic_seed);
        if net.in_flight() > 0 {
            continue; // rare wedged seed: not a liveness false positive
        }
        let monitor = net.health().expect("observatory enabled");
        assert!(
            monitor
                .verdicts()
                .iter()
                .all(|v| v.rule != HealthRule::LivenessStall),
            "seed {seed}: liveness false positive on a drained run:\n{}",
            net.health_report()
        );
    }
}

/// Enabling mid-run starts a fresh window series: pre-enable history is
/// excluded, so the windows reconcile against the *delta* of stats.
#[test]
fn enabling_mid_run_excludes_history() {
    let mut b = TopologyBuilder::new();
    let die = b.add_chiplet("die0");
    let ring = b.add_ring(die, RingKind::Full, 8).expect("ring");
    let src = b.add_node("src", ring, 0).expect("src");
    let dst = b.add_node("dst", ring, 4).expect("dst");
    let mut net = Network::new(b.build().expect("topology"), NetworkConfig::default());
    for token in 0..4u64 {
        net.enqueue(src, dst, FlitClass::Request, 64, token)
            .expect("enqueue");
        for _ in 0..20 {
            net.tick();
        }
        while net.pop_delivered(dst).is_some() {}
    }
    let before = stats_as_counters(&net.stats());
    assert!(before.delivered > 0, "pre-enable traffic must flow");
    net.enable_metrics(16);
    for token in 100..104u64 {
        net.enqueue(src, dst, FlitClass::Request, 64, token)
            .expect("enqueue");
        for _ in 0..20 {
            net.tick();
        }
        while net.pop_delivered(dst).is_some() {}
    }
    net.finish_metrics();
    let total = stats_as_counters(&net.stats());
    let reg = net.metrics().expect("enabled");
    assert_eq!(
        reg.summed(),
        total.delta_since(&before),
        "windows must cover exactly the post-enable delta"
    );
}
