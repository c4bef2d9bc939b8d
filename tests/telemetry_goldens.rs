//! Cross-commit anchor for the telemetry planes: every exported byte of
//! an all-planes `TxnFabric` run on the 4×4 torus, pinned as constants.
//!
//! The identity suites (`span_identity`, `waitgraph_identity`,
//! `topogen_observatory`, …) compare two engines of one build against
//! each other, so a change to how telemetry records are *stored* — ring
//! buffers, the recorder's snapshot window, the ranking of flow tables,
//! the census feeding the wait graph — moves every engine together and
//! passes them. `TELEMETRY_GOLDENS` was produced at commit bb697c9,
//! before those stores were rewritten, and may not be regenerated in a
//! change that claims to preserve behaviour.
//!
//! Every plane is on: a small `RingBufferSink` (so the sink wraps), the
//! flight recorder with short windows, the network and transaction
//! observatories, a `SpanCollector` and wait-graph forensics. Every
//! committed series keeps only its window (the recorder's for the
//! snapshot registry, 32 for the transaction series), so both series
//! are hashed as they are committed (read through `since` after every
//! tick), and forensics keeps the 4096 wait-graph samples the goldens
//! were pinned with, not the 32 it keeps by default. One
//! case runs the benchmark's mix; the other runs `TxnMix::default()`
//! with 32-flit bursts, which wedges the fabric so forensics latches and
//! watchdog bundles are captured.

mod common;

use noc_core::telemetry::{
    chrome_trace, jsonl, prometheus_text, snapshots_jsonl, span_trees_jsonl, spans_chrome_trace,
    txn_snapshots_jsonl, HealthConfig, MetricsSnapshot, PostmortemBundle, RecorderConfig,
    RingBufferSink, SpanCollector, TxnSpanTree, WaitGraphConfig,
};
use noc_core::{Network, NetworkConfig};
use noc_sim::fuzz::TrafficPattern;
use noc_sim::SimRng;
use noc_txn::drive::ClosedLoop;
use noc_txn::{TxnConfig, TxnFabric};
use noc_workloads::{TxnMix, TxnWorkload};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(text: &str) -> u64 {
    text.bytes().fold(FNV_OFFSET, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The benchmark's transaction mix (`TxnParams::BENCH`): no broadcasts.
const BENCH_MIX: TxnMix = TxnMix {
    read_frac: 0.45,
    write_frac: 0.43,
    atomic_frac: 0.12,
    bcast_frac: 0.0,
    posted_frac: 0.5,
};

/// One pinned run.
struct Case {
    name: &'static str,
    seed: u64,
    mix: TxnMix,
    max_data_flits: u16,
    cycles: u64,
    /// Transactions kept in flight (closed loop).
    outstanding: usize,
    recorder: RecorderConfig,
}

fn cases() -> [Case; 2] {
    let short = RecorderConfig {
        snapshot_window: 8,
        event_window: 300,
    };
    [
        Case {
            name: "bench-mix seed 1",
            seed: 1,
            mix: BENCH_MIX,
            max_data_flits: 16,
            cycles: 3_000,
            outstanding: 48,
            recorder: short,
        },
        Case {
            name: "default mix, 32-flit bursts (wedges)",
            seed: 1,
            mix: TxnMix::default(),
            max_data_flits: 32,
            cycles: 8_000,
            outstanding: 200,
            recorder: RecorderConfig::default(),
        },
    ]
}

/// Which export each hash covers, in [`Digest::hashes`] order.
const PARTS: [&str; 10] = [
    "registry snapshots_jsonl",
    "recorder-window snapshots_jsonl",
    "prometheus_text(last)",
    "txn_snapshots_jsonl",
    "chrome_trace(sink)",
    "sink EventCounts + dropped",
    "span_trees_jsonl",
    "spans_chrome_trace(exemplars)",
    "wait_graphs_jsonl",
    "bundles to_jsonl",
];

#[derive(Debug, PartialEq)]
struct Digest {
    cycles: u64,
    wedged: bool,
    snapshots: u64,
    bundles: usize,
    sink_dropped: u64,
    hashes: [u64; 10],
}

fn run(case: &Case) -> Digest {
    let (topo, devs) = common::torus4();
    let mut net = Network::with_sink(topo, NetworkConfig::default(), RingBufferSink::new(1_000));
    net.enable_flight_recorder(32, HealthConfig::default(), case.recorder.clone());
    let mut fab = TxnFabric::with_spans(
        net,
        TxnConfig {
            reassembly_slots: 1,
            max_data_flits: case.max_data_flits,
            metrics_period: 32,
            ..TxnConfig::default()
        },
        SpanCollector::new(64, 8),
    );
    fab.enable_forensics(WaitGraphConfig { max_samples: 4096 });

    let wl = TxnWorkload::new(
        devs,
        case.mix,
        TrafficPattern::Uniform,
        64,
        u32::from(case.max_data_flits),
    );
    let mut rng = SimRng::seed_from(case.seed.wrapping_mul(0x9E37_79B9));
    let mut requests = std::iter::repeat_with(|| wl.next(&mut rng));
    let mut lp = ClosedLoop::new(case.outstanding, usize::MAX);
    let (mut series, mut next) = (String::new(), 0u64);
    let (mut txn_series, mut txn_next) = (String::new(), 0u64);
    while fab.now().raw() < case.cycles {
        lp.cycle(&mut fab, &mut requests, |_| {}).expect("valid");
        let registry = fab.network().metrics().expect("observatory on");
        let fresh = registry.since(next).expect("read every tick");
        series.push_str(&snapshots_jsonl(fresh));
        next = registry.committed();
        let txn = fab.registry().expect("txn observatory on");
        let fresh = txn.since(txn_next).expect("read every tick");
        txn_series.push_str(&txn_snapshots_jsonl(fresh));
        txn_next = txn.committed();
    }

    let net = fab.network();
    let registry = net.metrics().expect("observatory on");
    let window: Vec<MetricsSnapshot> = net
        .recorder()
        .expect("recorder on")
        .snapshots()
        .cloned()
        .collect();
    let sink = net.sink();
    let trees: Vec<TxnSpanTree> = fab.span_sink().recent().cloned().collect();
    let mut bundles: Vec<PostmortemBundle> = net.bundles().to_vec();
    bundles.extend(fab.wedge_bundles().iter().cloned());
    bundles.push(fab.dump_postmortem("golden: end of run").expect("on"));
    let bundle_text: String = bundles.iter().map(|b| b.to_jsonl()).collect();
    Digest {
        cycles: fab.now().raw(),
        wedged: fab.wedge_latched(),
        snapshots: registry.committed(),
        bundles: bundles.len(),
        sink_dropped: sink.dropped(),
        hashes: [
            fnv(&series),
            fnv(&snapshots_jsonl(&window)),
            fnv(&prometheus_text(registry.last().expect("sampled"))),
            fnv(&txn_series),
            fnv(&chrome_trace(&sink.to_vec())),
            fnv(&format!(
                "{}/{}",
                serde_json::to_string(sink.counts()).expect("counts serialize"),
                sink.dropped()
            )),
            fnv(&span_trees_jsonl(&trees)),
            fnv(&spans_chrome_trace(fab.tail_exemplars())),
            fnv(&jsonl(fab.wait_tracker().expect("forensics on").samples())),
            fnv(&bundle_text),
        ],
    }
}

/// `(case, cycles, wedge latched, snapshots, bundles, sink dropped,
/// hashes in PARTS order)`.
type Golden = (&'static str, u64, bool, u64, usize, u64, [u64; 10]);

/// Produced at bb697c9. The last hash, the bundles', moved when
/// `NetworkConfig` lost its unread seed and its bandwidth-probe window
/// (each bundle's `meta.config` is two keys shorter). The part always hashed the
/// bundle text without its old environment line, which is exactly what
/// `to_jsonl` renders now. A copy of the parent commit that serialised
/// only the three remaining config fields printed the same two hashes.
#[rustfmt::skip]
const TELEMETRY_GOLDENS: &[Golden] = &[
    ("bench-mix seed 1", 3000, false, 93, 1, 87006, [0x8baebae84eeddb37, 0x321c2db89fa61fbf, 0x25f2a122790dd094, 0xb978c00a5ddf5478, 0x4fbd206d037f425f, 0xc691d0c578ba8c43, 0x26af2dc38cb93dad, 0xc3daa8f7c570871a, 0xcfe51c73bef77ed7, 0x1f7af5cee6132282]),
    ("default mix, 32-flit bursts (wedges)", 8000, true, 250, 6, 262517, [0x64f46b17a7b45c39, 0xd0f588849b3d2534, 0x20e7aa9803a0b973, 0xc55b75492ceb248e, 0x889811af3c029341, 0x21d1b7856873cdd0, 0xabc860b7343c3c22, 0xf2cdd50d1d12a07a, 0x033d297a2b840863, 0x3b38449f1f48f144]),
];

#[test]
fn telemetry_exports_match_goldens_pinned_at_bb697c9() {
    let cases = cases();
    let got: Vec<Digest> = cases.iter().map(run).collect();
    for (case, d) in cases.iter().zip(&got) {
        println!(
            "    (\"{}\", {}, {}, {}, {}, {}, [{}]),",
            case.name,
            d.cycles,
            d.wedged,
            d.snapshots,
            d.bundles,
            d.sink_dropped,
            d.hashes
                .iter()
                .map(|h| format!("0x{h:016x}"))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    assert_eq!(TELEMETRY_GOLDENS.len(), cases.len(), "one golden per case");
    for ((case, d), g) in cases.iter().zip(&got).zip(TELEMETRY_GOLDENS) {
        assert_eq!(case.name, g.0);
        assert_eq!(
            (d.cycles, d.wedged, d.snapshots, d.bundles, d.sink_dropped),
            (g.1, g.2, g.3, g.4, g.5),
            "{}: run shape moved",
            case.name
        );
        for (i, part) in PARTS.iter().enumerate() {
            assert_eq!(
                d.hashes[i], g.6[i],
                "{}: {part} moved from its bb697c9 golden",
                case.name
            );
        }
    }
}
