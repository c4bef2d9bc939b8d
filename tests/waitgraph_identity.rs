//! Detector-stream lockstep: the stall-forensics surface — sampled
//! wait graphs, SCC verdicts, gauge rows and wedge reports — must be
//! byte-identical across two fresh runs.
//!
//! Two workloads cover both detector regimes: a mixed transactional
//! load that never wedges (verdict stream stays
//! progressing/transient), and the known 4×4-torus stride-7 saturation
//! pattern with legacy admission, which must latch the *same* wedge
//! report on every run.

mod common;

use noc_core::telemetry::{jsonl, WaitGraphConfig, WaitVerdict};
use noc_core::{Network, NetworkConfig};
use noc_txn::drive::ClosedLoop;
use noc_txn::{TxnConfig, TxnFabric};

const SEEDS: u64 = 10;
const TXNS_PER_SEED: u64 = 24;

/// The tracker config the streams are compared under: up to 4096
/// samples retained, so the comparison covers a run's whole graph
/// stream rather than the default 32-sample tail.
fn forensics() -> WaitGraphConfig {
    WaitGraphConfig { max_samples: 4096 }
}

/// The forensics surface of one run, all pre-serialized: comparing
/// strings is the byte-identity claim, not structural equality.
#[derive(Debug, PartialEq)]
struct DetectorStream {
    /// One JSON line per retained wait-graph sample.
    graphs: String,
    /// The per-sample gauge rows (verdict, blocked counts, SCC count).
    stats: String,
    /// The latched wedge report, or `null`.
    report: String,
    cycles: u64,
}

fn txn_cfg() -> TxnConfig {
    TxnConfig {
        window: 4,
        max_data_flits: 32,
        metrics_period: 16,
        reassembly_slots: 1, // the credit path must itself be lockstep
    }
}

fn stream_of<S: noc_core::telemetry::TraceSink>(fab: &TxnFabric<S>) -> DetectorStream {
    let tracker = fab.wait_tracker().expect("forensics enabled");
    DetectorStream {
        graphs: jsonl(tracker.samples()),
        stats: serde_json::to_string(&tracker.stats().to_vec()).expect("stats serialize"),
        report: serde_json::to_string(&fab.wedge_report()).expect("report serializes"),
        cycles: fab.now().raw(),
    }
}

/// Drive a mixed seeded workload to quiescence and return the detector
/// stream.
fn run_mixed(seed: u64) -> DetectorStream {
    let (topo, devs) = common::torus(seed);
    let mut net = Network::new(topo, NetworkConfig::default());
    net.enable_metrics(16);
    let mut fab = TxnFabric::new(net, txn_cfg());
    fab.enable_forensics(forensics());
    common::run_mixed(&mut fab, devs, seed, TXNS_PER_SEED);
    stream_of(&fab)
}

/// Drive the known stride-7 saturation wedge (legacy admission, no
/// reassembly credits) until the detector latches, then a few more
/// cycles, and return the detector stream.
fn run_wedge() -> DetectorStream {
    let (topo, devs) = common::torus4();
    let mut net = Network::new(topo, NetworkConfig::default());
    net.enable_metrics(32);
    let mut fab = TxnFabric::new(
        net,
        TxnConfig {
            metrics_period: 32,
            ..TxnConfig::default()
        },
    );
    fab.enable_forensics(forensics());
    let mut requests = (0..).map(|i| common::stride7(i, &devs));
    let mut lp = ClosedLoop::new(200, usize::MAX);
    while fab.now().raw() < 4_000 && !fab.wedge_latched() {
        lp.cycle(&mut fab, &mut requests, |_| {}).expect("valid");
    }
    assert!(fab.wedge_latched(), "stride-7 saturation must latch");
    // A few more cycles past the latch: the post-latch stream must
    // stay identical too (the report is frozen, samples keep flowing).
    for _ in 0..4 {
        fab.tick();
    }
    stream_of(&fab)
}

#[test]
fn detector_streams_match_their_k_golden_on_ten_seeds() {
    for seed in 0..SEEDS {
        let golden = run_mixed(seed);
        assert!(
            !golden.graphs.is_empty(),
            "seed {seed}: no wait-graph samples recorded"
        );
        assert_eq!(
            golden.report, "null",
            "seed {seed}: mixed workload latched a wedge"
        );
        let other = run_mixed(seed);
        assert_eq!(
            golden, other,
            "seed {seed}: detector stream diverged on a second run"
        );
    }
}

#[test]
fn wedge_reports_are_byte_identical_across_engines() {
    let golden = run_wedge();
    assert_ne!(golden.report, "null", "no report latched");
    assert!(
        golden.report.contains("\"chain\""),
        "report names no cyclic chain"
    );
    assert_eq!(golden, run_wedge(), "wedge report diverged on a second run");
}

#[test]
fn verdict_stream_distinguishes_load_from_wedge() {
    // The wedge run must walk through progressing/transient verdicts
    // into a terminal wedged streak; the latched report must name ring
    // and escape resources in its chain and pin windows or reassembly
    // buffers behind it.
    let s = run_wedge();
    let stats: Vec<noc_core::telemetry::WaitStats> =
        serde_json::from_str(&s.stats).expect("stats parse");
    assert!(
        stats.iter().any(|r| r.verdict != WaitVerdict::Wedged),
        "stream begins before the wedge forms"
    );
    assert_eq!(
        stats.last().expect("samples exist").verdict,
        WaitVerdict::Wedged,
        "stream ends wedged"
    );
    let report: noc_core::telemetry::WedgeReport =
        serde_json::from_str(&s.report).expect("report parses");
    let rendered = report.render();
    assert!(rendered.contains("ring:"), "chain names ring resources");
    assert!(rendered.contains("escape:"), "chain names escape resources");
    let pinned = rendered.contains("window:") || rendered.contains("reassembly:");
    assert!(pinned, "report pins the dependent resources");
}
