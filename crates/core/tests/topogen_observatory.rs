//! Observatory and flight-recorder determinism on *generated* fabrics:
//! a 64-chiplet torus built by [`GridParams`] must produce
//! byte-identical snapshot streams, flow tables, link matrices and
//! postmortem bundles across fresh runs and every epoch length — the
//! same guarantee `flow_postmortem.rs` pins on hand-rolled random
//! topologies, now on the generative frontier of 64 rings.
//!
//! The recorder's 8-snapshot window bounds what the registry retains,
//! so the snapshot stream compared is the whole series, read through
//! `since` after every tick or epoch.

mod common;

use common::SnapshotStream;
use noc_core::drive::{drain, OpenLoop, Verdict};
use noc_core::spec::devices_by_name;
use noc_core::telemetry::{HealthConfig, PostmortemBundle, RecorderConfig};
use noc_core::topogen::GridParams;
use noc_core::{FlitClass, Network, NetworkConfig, NocDiagnostics, NodeId, Topology};
use noc_sim::fuzz::TrafficPattern;
use noc_sim::SimRng;

const SAMPLE_PERIOD: u64 = 32;

/// Build the acceptance-scale fabric: an 8×8 torus, 64 chiplets,
/// 16 stations per ring (1024 total), 2 devices per die.
fn torus_64(seed: u64) -> (Topology, Vec<NodeId>) {
    let spec = GridParams::torus(8, 8)
        .with_stations(16)
        .with_devices(2)
        .with_seed(seed)
        .generate()
        .expect("8x8 torus generates");
    assert_eq!(spec.total_stations(), 1024);
    let (topo, names) = spec.compile().expect("generated spec compiles");
    (topo, devices_by_name(&names))
}

/// Drive one flight-recorded network over the generated torus to full
/// drain with a seeded uniform schedule, finishing the metrics series;
/// return it with its snapshot series as streamed.
fn run_recorded(topo: Topology, devices: &[NodeId], traffic_seed: u64) -> (Network, String) {
    let mut net = Network::new(topo, NetworkConfig::default());
    net.enable_flight_recorder(
        SAMPLE_PERIOD,
        HealthConfig::default(),
        RecorderConfig {
            snapshot_window: 8,
            ..RecorderConfig::default()
        },
    );
    let mut offers = OpenLoop::new(devices.to_vec(), TrafficPattern::Uniform, 0.12);
    let mut rng = SimRng::seed_from(traffic_seed);
    let mut snapshots = SnapshotStream::default();
    for cycle in 0..220u64 {
        offers.offer(&mut net, &mut rng);
        net.tick();
        snapshots.read(&net);
        if cycle % 2 == 0 {
            offers.pop_all(&mut net);
        }
    }
    let verdict = drain(&mut net, 10_000, |net| {
        snapshots.read(net);
        offers.pop_all(net);
        Ok(())
    });
    assert!(matches!(verdict, Ok(Verdict::Drained(_))), "{verdict:?}");
    net.finish_metrics();
    snapshots.read(&net);
    (net, snapshots.jsonl)
}

/// Snapshot stream, flow top-K, link heat matrix and postmortem bundle
/// must be byte-identical across two fresh runs on the generated
/// 64-chiplet torus.
#[test]
fn observatory_byte_identical_across_modes_on_generated_torus() {
    for seed in [0x0Bu64, 0x5EED] {
        let (topo, devices) = torus_64(seed);
        assert_eq!(topo.chiplets().len(), 64);
        let traffic_seed = seed ^ 0x0B5E_11AE;

        type Baseline = (String, String, String, Vec<Vec<u64>>, Vec<u64>);
        let mut baseline: Option<Baseline> = None;
        for run in 0..2 {
            let ctx = format!("seed {seed:#x} run {run}");
            let (net, snapshots) = run_recorded(topo.clone(), &devices, traffic_seed);
            assert!(
                net.stats().delivered.get() > 0,
                "{ctx}: nothing was delivered"
            );
            assert_eq!(net.in_flight(), 0, "{ctx}: torus failed to drain");

            let committed = net.metrics().expect("enabled").committed();
            assert_eq!(snapshots.lines().count() as u64, committed, "{ctx}");
            assert!(committed > 8, "{ctx}: the series fits the recorder window");
            let flows = net.flow_top(8);
            assert!(!flows.is_empty(), "{ctx}: flow accounting recorded nothing");
            let flows_json = serde_json::to_string(&flows).expect("flows serialize");
            let bundle = net
                .dump_postmortem("generated-torus determinism probe")
                .expect("observatory enabled");
            let back = PostmortemBundle::from_jsonl(&bundle.to_jsonl()).expect("bundle parses");
            assert_eq!(bundle, back, "{ctx}: bundle JSONL round trip");
            let bundle_jsonl = bundle.to_jsonl();
            let links = net.link_cells();
            assert!(
                links.iter().flatten().any(|&v| v > 0),
                "{ctx}: link matrix recorded no traversals"
            );
            let fp = net.fingerprint();

            match &baseline {
                None => baseline = Some((snapshots, flows_json, bundle_jsonl, links, fp)),
                Some((base_snaps, base_flows, base_bundle, base_links, base_fp)) => {
                    assert_eq!(
                        base_snaps, &snapshots,
                        "{ctx}: snapshot stream diverged from run 0"
                    );
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
                    assert_eq!(base_fp, &fp, "{ctx}: stats fingerprint diverged from run 0");
                }
            }
        }
    }
}

/// Like [`run_recorded`] but advancing in `k`-cycle epochs, with
/// traffic and drains applied only at cycles aligned to `align`
/// (a common multiple of every compared epoch length, so all runs see
/// identical per-cycle inputs).
fn run_recorded_epoch(
    topo: Topology,
    devices: &[NodeId],
    traffic_seed: u64,
    k: u64,
    align: u64,
) -> (Network, String) {
    assert!(align.is_multiple_of(k));
    let mut net = Network::new(topo, NetworkConfig::default());
    net.enable_flight_recorder(
        SAMPLE_PERIOD,
        HealthConfig::default(),
        RecorderConfig {
            snapshot_window: 8,
            ..RecorderConfig::default()
        },
    );
    let mut rng = SimRng::seed_from(traffic_seed);
    let cycles = 224u64;
    let mut token = 0u64;
    let mut snapshots = SnapshotStream::default();
    loop {
        let now = net.now().raw();
        if now.is_multiple_of(align) && now < cycles {
            for si in 0..devices.len() {
                if !rng.gen_bool(0.12) {
                    continue;
                }
                let di = TrafficPattern::Uniform.pick_dest(&mut rng, devices.len(), si);
                token += 1;
                let _ = net.enqueue(devices[si], devices[di], FlitClass::Data, 64, token);
            }
        }
        net.tick_epoch(k)
            .expect("k bounded by the torus L2 latency");
        snapshots.read(&net);
        if net.now().raw().is_multiple_of(align) {
            for &d in devices {
                while net.pop_delivered(d).is_some() {}
            }
            if net.now().raw() >= cycles && net.in_flight() == 0 {
                break;
            }
            assert!(net.now().raw() < cycles + 20_000, "torus failed to drain");
        }
    }
    net.finish_metrics();
    snapshots.read(&net);
    (net, snapshots.jsonl)
}

/// Epoch axis over the generated torus: snapshot streams, flow tables,
/// link matrices, postmortem bundles and fingerprints must stay
/// byte-identical when the engine advances in K-cycle epochs — K ∈
/// {1, 2, 4, 8 = the torus' bridge-latency bound} — given an
/// epoch-aligned schedule.
#[test]
fn observatory_byte_identical_with_epoch_batching() {
    let seed = 0x0Bu64;
    let (topo, devices) = torus_64(seed);
    let traffic_seed = seed ^ 0x0B5E_11AE;
    const ALIGN: u64 = 8;

    type Baseline = (String, String, String, Vec<Vec<u64>>, Vec<u64>);
    let mut baseline: Option<Baseline> = None;
    for k in [1, 2, 4, 8] {
        let ctx = format!("seed {seed:#x} k={k}");
        let (net, snapshots) = run_recorded_epoch(topo.clone(), &devices, traffic_seed, k, ALIGN);
        assert_eq!(net.max_epoch(), 8, "{ctx}: torus bridge-latency bound");
        assert!(net.stats().delivered.get() > 0, "{ctx}: nothing delivered");
        let committed = net.metrics().expect("enabled").committed();
        assert_eq!(snapshots.lines().count() as u64, committed, "{ctx}");
        assert!(committed > 8, "{ctx}: the series fits the recorder window");
        let flows_json = serde_json::to_string(&net.flow_top(8)).expect("flows serialize");
        let bundle = net
            .dump_postmortem("epoch determinism probe")
            .expect("observatory enabled")
            .comparable_jsonl();
        let links = net.link_cells();
        let fp = net.fingerprint();
        match &baseline {
            None => baseline = Some((snapshots, flows_json, bundle, links, fp)),
            Some((base_snaps, base_flows, base_bundle, base_links, base_fp)) => {
                assert_eq!(base_snaps, &snapshots, "{ctx}: snapshot stream diverged");
                assert_eq!(base_flows, &flows_json, "{ctx}: flow top-K diverged");
                assert_eq!(base_bundle, &bundle, "{ctx}: postmortem bundle diverged");
                assert_eq!(base_links, &links, "{ctx}: link heat matrix diverged");
                assert_eq!(base_fp, &fp, "{ctx}: stats fingerprint diverged");
            }
        }
    }
}

/// The recorder's flow table on a generated torus attributes real
/// cross-fabric work: flows exist, they crossed bridges, and the
/// fabric census reflects the generated scale.
#[test]
fn generated_torus_flow_attribution_sees_bridge_crossings() {
    let (topo, devices) = torus_64(7);
    let (net, _) = run_recorded(topo, &devices, 0xF10);
    assert!(
        net.stats().bridge_crossings.get() > 0,
        "uniform traffic must cross dies"
    );
    let flows = net.flow_top(8);
    assert!(!flows.is_empty());
    struct Probe<'a>(&'a Network);
    impl noc_core::NocDiagnostics for Probe<'_> {
        fn noc(&self) -> &Network {
            self.0
        }
    }
    let card = Probe(&net).fabric_card();
    assert!(
        card.contains("64 chiplets") && card.contains("1024 stations"),
        "fabric card must reflect the generated scale: {card}"
    );
}
