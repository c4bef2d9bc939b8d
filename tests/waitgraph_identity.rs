//! Stall-forensics lockstep: what the wedge latch leaves behind — the
//! latched wedge report and the postmortem bundle captured with it —
//! must be byte-identical across two fresh runs.
//!
//! Two workloads cover both regimes: a mixed transactional load that
//! never stalls for `FREEZE_W` cycles (nothing latches), and the known
//! 4×4-torus stride-7 saturation pattern with legacy admission, which
//! must latch the *same* wedge report on every run.

mod common;

use noc_core::telemetry::{HealthRule, TraceSink, WaitGraphConfig, WedgeReport, FREEZE_W};
use noc_core::{Network, NetworkConfig};
use noc_sim::fuzz::TrafficPattern;
use noc_sim::SimRng;
use noc_txn::drive::ClosedLoop;
use noc_txn::{TxnConfig, TxnFabric};
use noc_workloads::{TxnMix, TxnWorkload};

const SEEDS: u64 = 10;
const TXNS_PER_SEED: u64 = 24;

/// What stall forensics leaves behind after one run, all
/// pre-serialized: comparing strings is the byte-identity claim, not
/// structural equality.
#[derive(Debug, PartialEq)]
struct Latched {
    /// The latched wedge report, or `null`.
    report: String,
    /// The postmortem bundles captured when the wedge latched, as JSONL.
    bundles: String,
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

fn latched_of<S: TraceSink>(fab: &TxnFabric<S>) -> Latched {
    Latched {
        report: serde_json::to_string(&fab.wedge_report()).expect("report serializes"),
        bundles: fab.wedge_bundles().iter().map(|b| b.to_jsonl()).collect(),
        cycles: fab.now().raw(),
    }
}

/// Drive a mixed seeded workload to quiescence and return what stall
/// forensics left.
fn run_mixed(seed: u64) -> Latched {
    let (topo, devs) = common::torus(seed);
    let mut net = Network::new(topo, NetworkConfig::default());
    net.enable_metrics(16);
    let mut fab = TxnFabric::new(net, txn_cfg());
    fab.enable_forensics(WaitGraphConfig);
    common::run_mixed(&mut fab, devs, seed, TXNS_PER_SEED);
    latched_of(&fab)
}

/// The known stride-7 saturation wedge (legacy admission, no reassembly
/// credits), driven until the latch fires, then a few more cycles.
/// Returns what forensics left and the largest `stalled_for()` seen at
/// an observatory boundary before the latch.
fn run_wedge() -> (Latched, u64) {
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
    fab.enable_forensics(WaitGraphConfig);
    let mut requests = (0..).map(|i| common::stride7(i, &devs));
    let mut lp = ClosedLoop::new(200, usize::MAX);
    let mut before_latch = 0;
    while fab.now().raw() < 4_000 && !fab.wedge_latched() {
        lp.cycle(&mut fab, &mut requests, |_| {}).expect("valid");
        if fab.now().raw() % 32 == 0 && !fab.wedge_latched() {
            before_latch = before_latch.max(fab.network().stalled_for());
        }
    }
    assert!(fab.wedge_latched(), "stride-7 saturation must latch");
    // A few more cycles past the latch: what forensics holds must stay
    // identical too (the report is frozen).
    for _ in 0..4 {
        fab.tick();
    }
    (latched_of(&fab), before_latch)
}

#[test]
fn detector_streams_match_their_k_golden_on_ten_seeds() {
    for seed in 0..SEEDS {
        let golden = run_mixed(seed);
        assert_eq!(
            golden.report, "null",
            "seed {seed}: mixed workload latched a wedge"
        );
        assert!(golden.bundles.is_empty(), "seed {seed}: wedge bundle");
        let other = run_mixed(seed);
        assert_eq!(
            golden, other,
            "seed {seed}: forensics diverged on a second run"
        );
    }
}

#[test]
fn wedge_reports_are_byte_identical_across_engines() {
    let (golden, _) = run_wedge();
    assert_ne!(golden.report, "null", "no report latched");
    assert!(
        golden.report.contains("\"chain\""),
        "report names no cyclic chain"
    );
    assert_eq!(
        golden.bundles.matches("\"kind\":\"meta\"").count(),
        1,
        "one bundle captured at the latch"
    );
    assert_eq!(
        golden,
        run_wedge().0,
        "wedge report or bundle diverged on a second run"
    );
}

#[test]
fn verdict_stream_distinguishes_load_from_wedge() {
    // The wedge run loads the fabric below the freeze window first and
    // latches only once the stamp reaches it; the latched report must
    // name ring and escape resources in its chain and pin windows or
    // reassembly buffers behind it.
    let (s, before_latch) = run_wedge();
    assert!(
        before_latch < FREEZE_W,
        "a boundary before the latch already read {before_latch}"
    );
    let report: WedgeReport = serde_json::from_str(&s.report).expect("report parses");
    assert!(report.stalled_for >= FREEZE_W, "{report:?}");
    let rendered = report.render();
    assert!(rendered.contains("ring:"), "chain names ring resources");
    assert!(rendered.contains("escape:"), "chain names escape resources");
    let pinned = rendered.contains("window:") || rendered.contains("reassembly:");
    assert!(pinned, "report pins the dependent resources");
}

#[test]
fn the_bench_mix_latches_nothing_and_fires_neither_stall_rule() {
    // The benchmark's transaction mix on the 4×4 torus, 48 in flight,
    // for 3 000 cycles: loaded, never stalled for FREEZE_W cycles.
    let (topo, devs) = common::torus4();
    let mut net = Network::new(topo, NetworkConfig::default());
    net.enable_metrics(32);
    let mut fab = TxnFabric::new(
        net,
        TxnConfig {
            reassembly_slots: 1,
            max_data_flits: 16,
            metrics_period: 32,
            ..TxnConfig::default()
        },
    );
    fab.enable_forensics(WaitGraphConfig);
    let mix = TxnMix {
        read_frac: 0.45,
        write_frac: 0.43,
        atomic_frac: 0.12,
        bcast_frac: 0.0,
        posted_frac: 0.5,
    };
    let wl = TxnWorkload::new(devs, mix, TrafficPattern::Uniform, 64, 16);
    let mut rng = SimRng::seed_from(1);
    let mut requests = std::iter::repeat_with(|| wl.next(&mut rng));
    let mut lp = ClosedLoop::new(48, usize::MAX);
    let mut peak = 0;
    while fab.now().raw() < 3_000 {
        lp.cycle(&mut fab, &mut requests, |_| {}).expect("valid");
        peak = peak.max(fab.network().stalled_for());
    }
    assert!(fab.counters().completed() > 1_000, "the mix ran");
    assert!(peak < FREEZE_W, "stalled for {peak} cycles");
    assert!(!fab.wedge_latched());
    let net = fab.network();
    let rules: Vec<HealthRule> = net
        .health()
        .expect("on")
        .verdicts()
        .iter()
        .map(|v| v.rule)
        .collect();
    assert!(
        !rules
            .iter()
            .any(|r| matches!(r, HealthRule::LivenessStall | HealthRule::DeadlockSuspected)),
        "{rules:?}"
    );
}
