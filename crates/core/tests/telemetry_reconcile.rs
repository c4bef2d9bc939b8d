//! Differential reconciliation: telemetry event counts must agree
//! exactly with the engine's `NetStats` counters — each lifecycle event
//! is emitted at the same program point its counter increments, so any
//! drift between the two accountings is a bug in the emission wiring.
//!
//! Each seed builds one random multi-ring topology (the same generator
//! as `tick_equivalence`), drives it to full drain under a
//! `RingBufferSink` (whose `EventCounts` never drop), and reconciles.

mod common;

use common::{drive_mixed, random_case, random_topology, Rng};
use noc_core::telemetry::{EventCounts, RingBufferSink};
use noc_core::{Network, NetworkConfig, NodeId, Topology};

/// Drive one traced network to full drain, returning its final
/// telemetry counts alongside the network for stats inspection.
fn run_traced(
    topo: Topology,
    cfg: NetworkConfig,
    devices: &[NodeId],
    traffic_seed: u64,
) -> Network<RingBufferSink> {
    // Small record buffer on purpose: reconciliation uses the never-
    // dropping EventCounts, not the bounded record ring.
    let mut net = Network::with_sink(topo, cfg, RingBufferSink::new(512));
    drive_mixed(&mut net, devices, traffic_seed);
    net
}

/// Assert every event count matches its `NetStats` twin exactly.
///
/// Emissions sit at the very program points that bump the counters, so
/// most identities hold at *any* instant — wedged seeds (rare random
/// configs deadlock in a bridge standoff that even SWAP/DRM never
/// untangles, a pre-existing engine property the tick-equivalence
/// oracle also tolerates) reconcile too. Only the bridge and
/// completeness identities additionally need the pipes/queues empty,
/// hence the `drained` gate.
fn reconcile(net: &Network<RingBufferSink>, seed: u64, drained: bool) {
    let c: &EventCounts = net.sink().counts();
    let s = net.stats();
    let ctx = format!("seed {seed}");
    assert_eq!(c.enqueued, s.enqueued.get(), "{ctx}: enqueued");
    assert_eq!(c.injected, s.injected.get(), "{ctx}: injected");
    assert_eq!(c.delivered, s.delivered.get(), "{ctx}: delivered");
    assert_eq!(c.deflected, s.deflections.get(), "{ctx}: deflections");
    assert_eq!(c.itag_set, s.itags_placed.get(), "{ctx}: itags placed");
    assert_eq!(c.etag_reserved, s.etags_placed.get(), "{ctx}: etags placed");
    assert_eq!(c.swap_triggered, s.swaps.get(), "{ctx}: swaps");
    // Pipe entries (events) can only lead pipe exits (the counter) by
    // the flits still inside the pipes.
    assert!(
        c.bridge_enqueued >= s.bridge_crossings.get(),
        "{ctx}: bridge entries behind exits"
    );
    assert!(c.itag_claimed <= c.itag_set, "{ctx}: claims exceed tags");
    if drained {
        assert_eq!(
            c.bridge_enqueued,
            s.bridge_crossings.get(),
            "{ctx}: bridge crossings"
        );
        assert_eq!(
            c.ejected,
            c.delivered + c.bridge_enqueued,
            "{ctx}: every ejection ends at a device or enters a bridge"
        );
        // Every flit that was ever enqueued reached a device.
        assert_eq!(c.enqueued, c.delivered, "{ctx}: drain completeness");
    }
}

#[test]
fn event_counts_reconcile_with_stats_on_20_random_seeds() {
    let mut drained_seeds = 0u32;
    for seed in 0..20u64 {
        let (topo, devices, cfg, traffic_seed) = random_case(seed);

        let net = run_traced(topo, cfg, &devices, traffic_seed);
        assert!(
            net.stats().delivered.get() > 0,
            "seed {seed}: nothing was delivered"
        );
        let drained = net.in_flight() == 0;
        drained_seeds += u32::from(drained);
        reconcile(&net, seed, drained);
    }
    // The drain-gated identities must actually get coverage.
    assert!(
        drained_seeds >= 15,
        "only {drained_seeds}/20 seeds drained — drain-dependent \
         reconciliation is under-covered"
    );
}

#[test]
fn bounded_sink_drops_records_but_never_counts() {
    let mut rng = Rng(7);
    let (topo, devices) = random_topology(&mut rng);
    let cfg = NetworkConfig::default();
    let net = run_traced(topo, cfg, &devices, 99);
    let sink = net.sink();
    assert!(sink.counts().total() > 0);
    assert!(sink.len() <= 512);
    if sink.counts().total() > 512 {
        assert!(sink.dropped() > 0, "overflow must be visible");
    }
}
