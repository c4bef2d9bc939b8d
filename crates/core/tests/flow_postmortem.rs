//! Flight-recorder correctness: flow attribution and postmortem
//! bundles must be byte-identical across two fresh runs — the evidence
//! a postmortem presents cannot depend on anything but the inputs —
//! and a watchdog latching on a wedged network must yield exactly one
//! bundle that names the stalled flow.

mod common;

use common::{drive_mixed, random_case};
use noc_core::telemetry::{HealthConfig, PostmortemBundle, RecorderConfig, Severity};
use noc_core::{FlitClass, Network, NetworkConfig, NodeId, RingKind, Topology, TopologyBuilder};

const SAMPLE_PERIOD: u64 = 32;

/// Drive one flight-recorded network to full drain with a
/// deterministic traffic pattern, finishing the metrics series.
fn run_recorded(
    topo: Topology,
    cfg: NetworkConfig,
    devices: &[NodeId],
    traffic_seed: u64,
) -> Network {
    let mut net = Network::new(topo, cfg);
    net.enable_flight_recorder(
        SAMPLE_PERIOD,
        HealthConfig::default(),
        RecorderConfig {
            snapshot_window: 8,
            flow_top_k: 8,
            ..RecorderConfig::default()
        },
    );
    drive_mixed(&mut net, devices, traffic_seed);
    net.finish_metrics();
    net
}

/// Flow tables, link matrices and full postmortem bundles must be
/// byte-identical across two fresh runs.
#[test]
fn flow_tables_and_bundles_byte_identical_across_modes_on_20_seeds() {
    for seed in 0..20u64 {
        let (topo, devices, cfg, traffic_seed) = random_case(seed);

        let mut baseline: Option<(String, String, Vec<Vec<u64>>)> = None;
        for run in 0..2 {
            let ctx = format!("seed {seed} run {run}");
            let net = run_recorded(topo.clone(), cfg.clone(), &devices, traffic_seed);
            assert!(
                net.stats().delivered.get() > 0,
                "{ctx}: nothing was delivered"
            );
            let flows = net.flow_top(8);
            assert!(!flows.is_empty(), "{ctx}: flow accounting recorded nothing");
            let flows_json = serde_json::to_string(&flows).expect("flows serialize");
            let bundle = net
                .dump_postmortem("determinism probe")
                .expect("observatory enabled");
            // The bundle round-trips through its own JSONL.
            let back =
                PostmortemBundle::from_jsonl(&bundle.to_jsonl()).expect("bundle parses back");
            assert_eq!(bundle, back, "{ctx}: bundle JSONL round trip");
            let bundle_jsonl = bundle.to_jsonl();
            let links = net.link_cells();
            assert!(
                links.iter().flatten().any(|&v| v > 0),
                "{ctx}: link matrix recorded no traversals"
            );
            match &baseline {
                None => baseline = Some((flows_json, bundle_jsonl, links)),
                Some((base_flows, base_bundle, base_links)) => {
                    assert_eq!(
                        base_flows, &flows_json,
                        "{ctx}: flow top-K diverged from run 0"
                    );
                    assert_eq!(
                        base_bundle, &bundle_jsonl,
                        "{ctx}: postmortem bundle diverged from run 0"
                    );
                    assert_eq!(
                        base_links, &links,
                        "{ctx}: link heat matrix diverged from run 0"
                    );
                }
            }
        }
    }
}

/// Two devices on one small ring; the destination never drains its
/// eject queue, so every arrival past the cap deflects forever. The
/// liveness watchdog latches CRIT, and the recorder must capture
/// exactly one bundle whose heaviest flow is the wedged src→dst pair.
#[test]
fn wedged_ejection_crit_captures_one_bundle_naming_the_stalled_flow() {
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
    net.enable_flight_recorder(
        32,
        HealthConfig::default(),
        RecorderConfig {
            max_bundles: 1,
            ..RecorderConfig::default()
        },
    );
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

    let bundles = net.bundles();
    assert_eq!(
        bundles.len(),
        1,
        "exactly one watchdog bundle expected (cap 1):\n{}",
        net.health_report()
    );
    let bundle = &bundles[0];
    assert!(
        bundle.meta.reason.starts_with("watchdog:"),
        "capture must credit the watchdog: {}",
        bundle.meta.reason
    );
    assert!(
        bundle
            .verdicts
            .iter()
            .any(|v| v.severity == Severity::Critical),
        "wedged run must carry a CRIT verdict:\n{}",
        bundle.render()
    );
    // The stalled flow tops the attribution table even though it
    // delivers (almost) nothing: deflections keep its weight climbing.
    let top = bundle.flows.first().expect("flow table must not be empty");
    assert_eq!(
        (top.src, top.dst),
        (src.0, dst.0),
        "heaviest flow must be the wedged pair:\n{}",
        bundle.render()
    );
    assert!(
        top.deflections > 0,
        "the wedged flow must be charged its deflections"
    );
    assert!(
        top.deflections > top.delivered,
        "deflections must dominate a wedged flow"
    );
    // The rendered postmortem names the pair for humans too.
    let rendered = bundle.render();
    assert!(
        rendered.contains(&format!("n{} -> n{}", src.0, dst.0)),
        "render must name the stalled flow:\n{rendered}"
    );

    // Explicit dumps still work and are not stored against the cap.
    let explicit = net.dump_postmortem("operator request").expect("enabled");
    assert_eq!(explicit.meta.reason, "operator request");
    assert_eq!(net.bundles().len(), 1, "explicit dumps are not retained");
}
