//! Span-stream determinism: the causal span trees (and the
//! tail-exemplar reservoir derived from them) must be byte-identical
//! across two fresh runs, because they are emitted from the fabric's
//! drain path in deterministic endpoint order. This is the
//! observability extension of `txn_lockstep`: not just *that* the same
//! transactions complete at the same cycles, but that every per-packet
//! counter, causal edge and critical-flit record agrees byte for byte.

use noc_core::telemetry::{
    critical_path, span_trees_jsonl, LatencyBreakdown, SpanCollector, SpanSink,
};
use noc_core::{GridParams, Network, NetworkConfig, NodeId};
use noc_sim::fuzz::TrafficPattern;
use noc_sim::SimRng;
use noc_txn::{TxnConfig, TxnFabric};
use noc_workloads::{TxnMix, TxnRequest, TxnWorkload};

const SEEDS: u64 = 20;
const TXNS_PER_SEED: usize = 30;
const EXEMPLAR_K: usize = 8;

/// The serialized observability record of one run.
#[derive(Debug, PartialEq)]
struct SpanStream {
    /// Every recorded tree, oldest first, as JSONL.
    trees: String,
    /// The K slowest trees, slowest first, as JSONL.
    exemplars: String,
    recorded: u64,
}

fn torus(seed: u64) -> (noc_core::Topology, Vec<NodeId>) {
    let (topo, names) = GridParams::torus(2, 2)
        .with_devices(8)
        .with_seed(seed)
        .generate()
        .expect("params are valid")
        .compile()
        .expect("spec compiles");
    let mut named: Vec<(String, NodeId)> = names.into_iter().collect();
    named.sort();
    let devs: Vec<NodeId> = named.into_iter().map(|(_, id)| id).collect();
    (topo, devs)
}

fn txn_cfg() -> TxnConfig {
    TxnConfig {
        window: 4,
        max_data_flits: 32,
        ..TxnConfig::default()
    }
}

/// Drive the seeded workload to quiescence, collecting spans.
fn run_variant(seed: u64) -> SpanStream {
    let (topo, devs) = torus(seed);
    let net = Network::new(topo, NetworkConfig::default());
    let mut fab = TxnFabric::with_spans(net, txn_cfg(), SpanCollector::new(4096, EXEMPLAR_K));
    let wl = TxnWorkload::new(devs, TxnMix::default(), TrafficPattern::Uniform, 64, 32);
    let mut rng = SimRng::seed_from(seed.wrapping_mul(0x9E37_79B9));
    let mut accepted = 0usize;
    let mut pending: Option<TxnRequest> = None;
    let mut guard = 0u64;
    while accepted < TXNS_PER_SEED {
        let req = pending.take().unwrap_or_else(|| wl.next(&mut rng));
        let outcome = match &req {
            TxnRequest::Point { src, dst, op } => fab
                .submit(*src, *dst, *op)
                .expect("generated endpoints are valid")
                .map(|_| ()),
            TxnRequest::Broadcast {
                src,
                targets,
                bytes,
            } => fab
                .submit_broadcast(*src, targets, *bytes)
                .expect("generated broadcasts are valid")
                .map(|_| ()),
        };
        match outcome {
            Some(()) => accepted += 1,
            None => pending = Some(req),
        }
        fab.tick();
        guard += 1;
        assert!(guard < 1_000_000, "seed {seed}: workload never accepted");
    }
    assert!(
        fab.run_until_quiet(2_000_000),
        "seed {seed}: fabric failed to quiesce"
    );

    // Every recorded tree must reconcile exactly before we bother
    // comparing streams: phase sums == completion latency.
    let trees: Vec<_> = fab.span_sink().recent().cloned().collect();
    assert_eq!(trees.len(), TXNS_PER_SEED, "seed {seed}: tree per txn");
    for t in &trees {
        let cp = critical_path(t);
        assert!(
            cp.reconciles(),
            "seed {seed}: txn {} phases {:?} != latency {}",
            t.txn,
            cp.phases,
            t.latency()
        );
    }
    // And in aggregate against the registry: a completion that never
    // produced a tree would leave cycles unattributed here.
    let breakdown = LatencyBreakdown::of(&trees);
    assert_eq!(
        breakdown.total,
        fab.latency().sum(),
        "seed {seed}: phase totals != registry latency sum"
    );
    assert_eq!(
        breakdown.txns,
        fab.counters().completed(),
        "seed {seed}: trees != registry completions"
    );
    assert!(breakdown.phases.ring > 0, "seed {seed}: no ring time");
    SpanStream {
        trees: span_trees_jsonl(&trees),
        exemplars: span_trees_jsonl(fab.span_sink().exemplars()),
        recorded: fab.span_sink().recorded(),
    }
}

/// 20 pinned seeds: the span and exemplar JSONL streams are
/// byte-identical across two fresh runs.
#[test]
fn span_streams_are_byte_identical_across_engines() {
    for seed in 0..SEEDS {
        let golden = run_variant(seed);
        assert_eq!(golden.recorded, TXNS_PER_SEED as u64);
        assert!(!golden.exemplars.is_empty(), "seed {seed}: no exemplars");
        let other = run_variant(seed);
        assert_eq!(
            golden.trees, other.trees,
            "seed {seed}: span stream diverged on a second run"
        );
        assert_eq!(
            golden.exemplars, other.exemplars,
            "seed {seed}: exemplar reservoir diverged on a second run"
        );
    }
}
