//! Watchdog no-false-positive regression on the paper's standard
//! workloads.
//!
//! The liveness-stall rule exists to flag wedged networks (the firing
//! half is covered by `crates/core/tests/metrics_observatory.rs`).
//! Here we run the fig11/fig12-style memory-noise workloads — the
//! workloads every experiment in §5 is built from — with the
//! observatory enabled and assert the watchdog stays quiet: these
//! systems drain, so a liveness verdict would be a false positive.

use noc_baseline::{MemHarness, RingAdapter};
use noc_core::telemetry::HealthRule;
use noc_core::{NocDiagnostics, NodeId};
use noc_experiments::fig11;
use noc_experiments::systems::{self, Partition};
use noc_server_cpu::experiments::{coherence_ping, lines_homed_at};
use noc_server_cpu::{ServerCpu, ServerCpuConfig};

/// Observatory sampling period for the regression runs.
const PERIOD: u64 = 32;

/// The fig11 harness factory, with the observatory switched on at the
/// network before it is wrapped.
fn observed_harness() -> (MemHarness<RingAdapter>, NodeId, Vec<NodeId>) {
    let (spec, map) = ServerCpuConfig::default().spec();
    let (mut net, _) = spec.build().expect("server config builds");
    net.enable_metrics(PERIOD);
    let ic = RingAdapter::new(net);
    let part = Partition {
        requesters: map.clusters,
        home_nodes: Vec::new(),
        memories: map.ddrs,
        cores_per_requester: 4,
    };
    systems::probe_and_noise((ic, part))
}

#[test]
fn fig11_noise_sweep_never_trips_the_liveness_watchdog() {
    // Every mix of the paper's Figure 11, at a light and a heavy noise
    // rate (fig12/13 sweep the same harness over the same rate range).
    for &(mix, read_frac) in &fig11::MIXES {
        for &rate in &[0.05_f64, 0.4] {
            let (mut h, probe, noise) = observed_harness();
            let _ = h.run_probe_with_noise(probe, &noise, rate, read_frac, 300, 2_500);

            let net = h.interconnect().network();
            let reg = net.metrics().expect("observatory enabled via config");
            assert!(
                !reg.is_empty(),
                "{mix} @ {rate}: observatory produced no snapshots"
            );
            let monitor = net.health().expect("observatory enabled via config");
            let stalls: Vec<_> = monitor
                .verdicts()
                .iter()
                .filter(|v| v.rule == HealthRule::LivenessStall)
                .collect();
            assert!(
                stalls.is_empty(),
                "{mix} @ {rate}: liveness watchdog false-positived: {stalls:?}"
            );
        }
    }
}

#[test]
fn coherent_server_health_summary_reports_a_live_observatory() {
    // Satellite surface check: `NocDiagnostics::health_summary` on a
    // metrics-enabled SoC after a standard coherence workload.
    let cfg = ServerCpuConfig::default();
    let (spec, map) = cfg.spec();
    let (mut net, _) = spec.build().expect("default server builds");
    net.enable_metrics(PERIOD);
    let mut s = ServerCpu::over(net, map, cfg);

    let local_hns: Vec<_> = s.map.home_nodes[..s.cfg.hn_per_ccd].to_vec();
    let addrs = lines_homed_at(&s.sys, &local_hns, 8, 0x100);
    let owner = s.map.clusters_of_ccd(0)[0];
    let helper = s.map.clusters_of_ccd(0)[2];
    let reader = s.map.clusters_of_ccd(1)[0];
    let lat = coherence_ping(
        &mut s.sys,
        owner,
        helper,
        reader,
        noc_server_cpu::experiments::PreparedState::M,
        &addrs,
    );
    assert!(lat > 0.0, "coherence ping measured nothing");

    let summary = s.health_summary();
    assert!(
        !summary.contains("observatory disabled"),
        "enable_metrics should have enabled the observatory: {summary}"
    );
    // Switched on before the first tick, the observatory saw every
    // window of the run.
    let net = s.noc();
    assert_eq!(
        net.metrics().expect("observatory on").committed(),
        net.now().raw() / PERIOD
    );
    let monitor = s.noc().health().expect("observatory enabled");
    assert!(
        !monitor
            .verdicts()
            .iter()
            .any(|v| v.rule == HealthRule::LivenessStall),
        "coherence ping false-positived the liveness watchdog:\n{summary}"
    );

    // The disabled path still answers, rather than panicking.
    let plain = systems::ours_coherent();
    assert!(plain.health_summary().contains("observatory disabled"));
}
