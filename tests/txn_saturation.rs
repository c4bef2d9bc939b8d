//! Saturation regression for the reassembly-credit admission fix.
//!
//! Before PR 10 the fabric could wedge under sustained non-posted
//! write saturation: rings fill with transit flits, every escape
//! buffer's drain ring is itself full, and SWAP cannot break a cycle
//! that spans four bridges. `TxnConfig::reassembly_slots = 1` credits
//! reassembly buffers against admission — a non-urgent packet's header
//! is released from the staged queue only once its destination holds a
//! free reassembly credit — which bounds uncompleted packets per
//! destination and provably keeps the staged FIFOs drainable (all
//! flits of a credited packet precede any credit-blocked header, so
//! credited packets always complete and recycle their credit).
//!
//! These tests pin both sides of the story with the stall-forensics
//! detector on throughout:
//!
//! * legacy admission (`reassembly_slots = 0`) wedges the stride-7
//!   pattern and the detector latches a wedge report naming a
//!   ring/escape cycle — the detector-fires-on-wedge guarantee — while
//!   the same pattern at a load below the wedge frontier drains with
//!   the detector silent;
//! * with the fix, the exact configurations that used to wedge drain
//!   completely and the detector never latches — the fix guarantee.

mod common;

use noc_core::telemetry::{PostmortemBundle, WaitGraphConfig};
use noc_core::{Network, NetworkConfig, NodeId};
use noc_txn::drive::{settle, ClosedLoop, Verdict, STALL_W};
use noc_txn::{TxnConfig, TxnFabric, TxnOp, TxnRequest};

/// Antipodal 4 KiB DMA bursts: device i writes to the device half the
/// ring away.
fn dma(i: usize, devs: &[NodeId]) -> TxnRequest {
    let n = devs.len();
    TxnRequest::Point {
        src: devs[i % n],
        dst: devs[(i + n / 2) % n],
        op: TxnOp::Write {
            bytes: 4096,
            posted: false,
        },
    }
}

struct SaturationRun {
    accepted: u64,
    completed: u64,
    verdict: Verdict,
    latched: bool,
    chain_len: usize,
    /// `WedgeReport::render()` of the latched report, empty if none.
    wedge_text: String,
    /// The postmortem bundle captured at the first latch.
    bundle: Option<PostmortemBundle>,
    health: String,
}

/// Drive `total` requests from the generator through the closed loop,
/// keeping up to `max_outstanding` transactions in flight and offering
/// at most `per_cycle` a cycle, with the wait-graph detector armed;
/// offers stop early once the network has made no progress for
/// `STALL_W` cycles. The run ends on `settle`'s verdict.
fn run_saturation(
    req: fn(usize, &[NodeId]) -> TxnRequest,
    max_outstanding: usize,
    total: usize,
    per_cycle: usize,
    slots: usize,
) -> SaturationRun {
    let (topo, devs) = common::torus4();
    let mut net = Network::new(topo, NetworkConfig::default());
    net.enable_metrics(32);
    let mut fab = TxnFabric::new(
        net,
        TxnConfig {
            metrics_period: 32,
            reassembly_slots: slots,
            ..TxnConfig::default()
        },
    );
    fab.enable_forensics(WaitGraphConfig::default());
    let mut requests = (0..total).map(|i| req(i, &devs));
    let mut lp = ClosedLoop::new(max_outstanding, per_cycle);
    while lp.accepted() < total as u64 && fab.network().stalled_for() < STALL_W {
        lp.cycle(&mut fab, &mut requests, |_| {}).expect("valid");
    }
    let verdict = settle(&mut fab, 1_000_000, |_| Ok(())).expect("no tick check");
    SaturationRun {
        accepted: lp.accepted(),
        completed: fab.counters().completed(),
        verdict,
        latched: fab.wedge_latched(),
        chain_len: fab.wedge_report().map_or(0, |r| r.chain.len()),
        wedge_text: fab.wedge_report().map(|r| r.render()).unwrap_or_default(),
        bundle: fab.wedge_bundles().first().cloned(),
        health: fab.network().health_report(),
    }
}

#[test]
fn legacy_admission_wedges_and_detector_latches() {
    // The pre-fix behaviour is itself pinned: greedy stride-7 at 200
    // outstanding wedges within ~1.5k cycles, `settle` calls it wedged
    // one stall window later, and the detector must have latched with
    // a non-trivial cyclic chain by then.
    let run = run_saturation(common::stride7, 200, 2000, usize::MAX, 0);
    assert!(
        matches!(run.verdict, Verdict::Wedged(n) if n > 0),
        "legacy admission did not wedge: {:?}",
        run.verdict
    );
    assert!(
        run.latched,
        "wedged (completed {} of {}) but the detector never latched",
        run.completed, run.accepted
    );
    assert!(
        run.chain_len >= 2,
        "latched report names no cyclic chain (len {})",
        run.chain_len
    );
    assert!(
        run.health.contains("stalls: wedged"),
        "health summary misses the stall line:\n{}",
        run.health
    );
    // The rendered report names both halves of the cycle, and the
    // latch captured a postmortem bundle that survives its own JSONL.
    assert!(run.wedge_text.contains("ring:"), "{}", run.wedge_text);
    assert!(run.wedge_text.contains("escape:"), "{}", run.wedge_text);
    let bundle = run.bundle.expect("the latch captured no postmortem bundle");
    let back = PostmortemBundle::from_jsonl(&bundle.to_jsonl()).expect("bundle parses back");
    assert_eq!(bundle, back, "bundle JSONL round trip");
}

#[test]
fn legacy_admission_below_the_frontier_drains_silently() {
    // The detector's other half: at 32 outstanding the same greedy
    // stride-7 pattern drains under legacy admission, and a draining
    // run must never latch.
    let run = run_saturation(common::stride7, 32, 400, usize::MAX, 0);
    assert!(
        matches!(run.verdict, Verdict::Drained(_)),
        "legacy stride-7 at 32 outstanding failed to drain: completed {} of {}",
        run.completed,
        run.accepted
    );
    assert!(!run.latched, "detector latched on a draining run");
    assert_eq!(run.accepted, 400);
}

#[test]
fn credited_admission_drains_greedy_dma_bursts() {
    let run = run_saturation(dma, 200, 200, usize::MAX, 1);
    assert!(
        !run.latched,
        "detector latched on credited DMA bursts (completed {})",
        run.completed
    );
    assert!(
        matches!(run.verdict, Verdict::Drained(_)),
        "credited DMA bursts failed to drain: completed {} of {}",
        run.completed,
        run.accepted
    );
    assert_eq!(run.accepted, 200);
}

#[test]
fn credited_admission_drains_paced_stride7() {
    let run = run_saturation(common::stride7, 64, 600, 1, 1);
    assert!(
        !run.latched,
        "detector latched on credited paced stride-7 (completed {})",
        run.completed
    );
    assert!(
        matches!(run.verdict, Verdict::Drained(_)),
        "credited paced stride-7 failed to drain: completed {} of {}",
        run.completed,
        run.accepted
    );
    assert_eq!(run.accepted, 600);
}

#[test]
fn credited_admission_drains_greedy_stride7() {
    // The exact configuration of `legacy_admission_wedges_...`, fixed.
    let run = run_saturation(common::stride7, 200, 600, usize::MAX, 1);
    assert!(
        !run.latched,
        "detector latched on credited greedy stride-7 (completed {})",
        run.completed
    );
    assert!(
        matches!(run.verdict, Verdict::Drained(_)),
        "credited greedy stride-7 failed to drain: completed {} of {}",
        run.completed,
        run.accepted
    );
    assert_eq!(run.accepted, 600);
    assert!(
        run.health.contains("stalls: progressing"),
        "health summary misses the stall line:\n{}",
        run.health
    );
}
