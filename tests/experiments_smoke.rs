//! A postmortem smoke on both SoC models that leaves real bundles under
//! `target/postmortem/` for CI to archive. Every experiment's shape
//! checks run once, in `tests/repro_goldens.rs`
//! (`repro_quick_results_keep_their_shape`).

use noc_ai::{AiConfig, AiEngine, AiProcessor, AiTraffic};
use noc_chi::{LineAddr, ReadKind};
use noc_core::telemetry::{HealthConfig, PostmortemBundle, RecorderConfig};
use noc_core::NocDiagnostics;
use noc_server_cpu::{ServerCpu, ServerCpuConfig};
use noc_sim::SimRng;
use std::path::PathBuf;

/// Observatory sampling period of both smoke runs.
const PERIOD: u64 = 32;

/// Sanity-check one SoC's explicit postmortem dump and persist the
/// bundle where CI picks it up as an artifact.
fn check_and_archive(bundle: PostmortemBundle, file: &str) {
    assert!(!bundle.flows.is_empty(), "{file}: no flows attributed");
    assert!(
        !bundle.snapshots.is_empty(),
        "{file}: no snapshots retained"
    );
    let jsonl = bundle.to_jsonl();
    let back = PostmortemBundle::from_jsonl(&jsonl).expect("bundle parses back");
    assert_eq!(bundle, back, "{file}: JSONL round trip");
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/postmortem");
    std::fs::create_dir_all(&dir).expect("create target/postmortem");
    std::fs::write(dir.join(file), jsonl).expect("write bundle");
}

#[test]
fn server_cpu_postmortem_smoke() {
    let cfg = ServerCpuConfig {
        clusters_per_ccd: 4,
        hn_per_ccd: 2,
        ddr_per_ccd: 2,
        ..Default::default()
    };
    let (spec, map) = cfg.spec();
    let (mut net, _) = spec.build().expect("builds");
    net.enable_flight_recorder(PERIOD, HealthConfig::default(), RecorderConfig::default());
    let mut s = ServerCpu::over(net, map, cfg);
    let clusters = s.map.clusters.clone();
    let mut rng = SimRng::seed_from(7);
    for step in 0..200 {
        let rn = clusters[rng.gen_index(clusters.len())];
        let addr = LineAddr(rng.gen_range(0..32));
        if step % 3 == 0 {
            s.sys.write(rn, addr);
        } else {
            s.sys.read(rn, addr, ReadKind::Shared);
        }
        for _ in 0..4 {
            s.sys.tick();
        }
    }
    let report = s.flow_report(5);
    assert!(
        !report.contains("(no flows observed)"),
        "server CPU saw traffic but attributed no flows:\n{report}"
    );
    let net = s.sys.network();
    // Switched on before the first tick, the observatory saw every
    // window of the run.
    assert_eq!(
        net.metrics().expect("observatory on").committed(),
        net.now().raw() / PERIOD
    );
    let bundle = net
        .dump_postmortem("server-cpu smoke")
        .expect("recorder enabled");
    check_and_archive(bundle, "server_cpu_smoke.jsonl");
}

#[test]
fn ai_processor_postmortem_smoke() {
    let mut proc = AiProcessor::build(AiConfig {
        v_rings: 4,
        cores_per_vring: 4,
        h_rings: 3,
        l2_per_hring: 4,
        hbm_count: 3,
        dma_count: 3,
        llc_count: 3,
        ..Default::default()
    })
    .expect("builds");
    proc.net
        .enable_flight_recorder(PERIOD, HealthConfig::default(), RecorderConfig::default());
    let mut e = AiEngine::new(proc, AiTraffic::from_ratio(1, 1));
    e.run(200, 2_000).expect("runs");
    let p = e.processor();
    let report = p.flow_report(5);
    assert!(
        !report.contains("(no flows observed)"),
        "AI processor saw traffic but attributed no flows:\n{report}"
    );
    assert_eq!(
        p.net.metrics().expect("observatory on").committed(),
        p.net.now().raw() / PERIOD
    );
    let bundle = p.net.dump_postmortem("ai smoke").expect("recorder enabled");
    check_and_archive(bundle, "ai_smoke.jsonl");
}
