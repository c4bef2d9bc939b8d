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

use noc_core::spec::devices_by_name;
use noc_core::telemetry::{PostmortemBundle, WaitGraphConfig};
use noc_core::topogen::GridParams;
use noc_core::{Network, NetworkConfig, NodeId};
use noc_txn::{TxnConfig, TxnFabric, TxnOp};

/// The wedge topology, where full rings and full bridge escape buffers
/// form a cyclic wait SWAP cannot break: 4×4 torus, 16 stations, 2
/// devices per station, pinned seed.
fn torus_devices() -> (noc_core::Topology, Vec<NodeId>) {
    let (topo, names) = GridParams::torus(4, 4)
        .with_stations(16)
        .with_devices(2)
        .with_seed(0x7261_6a65)
        .generate()
        .expect("torus generates")
        .compile()
        .expect("torus compiles");
    (topo, devices_by_name(&names))
}

/// Antipodal 4 KiB DMA bursts: device i writes to the device half the
/// ring away.
fn dma(i: usize, devs: &[NodeId]) -> (NodeId, NodeId, TxnOp) {
    let n = devs.len();
    (
        devs[i % n],
        devs[(i + n / 2) % n],
        TxnOp::Write {
            bytes: 4096,
            posted: false,
        },
    )
}

/// Stride-7 2 KiB non-posted writes: the pattern that wedges legacy
/// admission (the stride walks every bridge pair, closing a four-ring
/// escape cycle).
fn stride7(i: usize, devs: &[NodeId]) -> (NodeId, NodeId, TxnOp) {
    let n = devs.len();
    let src = i % n;
    let mut dst = (i * 7 + 3) % n;
    if dst == src {
        dst = (dst + 1) % n;
    }
    (
        devs[src],
        devs[dst],
        TxnOp::Write {
            bytes: 2048,
            posted: false,
        },
    )
}

struct SaturationRun {
    accepted: usize,
    completed: u64,
    drained: bool,
    latched: bool,
    chain_len: usize,
    /// `WedgeReport::render()` of the latched report, empty if none.
    wedge_text: String,
    /// The postmortem bundle captured at the first latch.
    bundle: Option<PostmortemBundle>,
    health: String,
}

/// Drive `total` requests from the generator, keeping up to
/// `max_outstanding` transactions in flight (`greedy` refills the
/// window every cycle; paced submits at most one per cycle), with the
/// wait-graph detector armed. Returns what happened.
fn run_saturation(
    req: fn(usize, &[NodeId]) -> (NodeId, NodeId, TxnOp),
    max_outstanding: usize,
    total: usize,
    greedy: bool,
    slots: usize,
) -> SaturationRun {
    let (topo, devs) = torus_devices();
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
    let mut accepted = 0usize;
    let mut last_completed = 0u64;
    let mut last_progress_cycle = 0u64;
    loop {
        loop {
            if accepted >= total || fab.in_flight_txns() >= max_outstanding {
                break;
            }
            let (src, dst, op) = req(accepted, &devs);
            if fab.submit(src, dst, op).expect("valid").is_some() {
                accepted += 1;
                if !greedy {
                    break;
                }
            } else {
                break;
            }
        }
        fab.tick();
        let done = fab.counters().completed();
        if done != last_completed {
            last_completed = done;
            last_progress_cycle = fab.now().raw();
        }
        let quiet = fab.quiet() && accepted >= total;
        let stuck = fab.now().raw() - last_progress_cycle > 50_000;
        if quiet || fab.wedge_latched() || stuck {
            return SaturationRun {
                accepted,
                completed: last_completed,
                drained: quiet,
                latched: fab.wedge_latched(),
                chain_len: fab.wedge_report().map_or(0, |r| r.chain.len()),
                wedge_text: fab.wedge_report().map(|r| r.render()).unwrap_or_default(),
                bundle: fab.wedge_bundles().first().cloned(),
                health: fab.network().health_report(),
            };
        }
    }
}

#[test]
fn legacy_admission_wedges_and_detector_latches() {
    // The pre-fix behaviour is itself pinned: greedy stride-7 at 200
    // outstanding wedges within ~1.5k cycles, and the detector must
    // latch with a non-trivial cyclic chain — not time out silently.
    let run = run_saturation(stride7, 200, 2000, true, 0);
    assert!(!run.drained, "legacy admission unexpectedly drained");
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
    let run = run_saturation(stride7, 32, 400, true, 0);
    assert!(
        run.drained,
        "legacy stride-7 at 32 outstanding failed to drain: completed {} of {}",
        run.completed, run.accepted
    );
    assert!(!run.latched, "detector latched on a draining run");
    assert_eq!(run.accepted, 400);
}

#[test]
fn credited_admission_drains_greedy_dma_bursts() {
    let run = run_saturation(dma, 200, 200, true, 1);
    assert!(
        !run.latched,
        "detector latched on credited DMA bursts (completed {})",
        run.completed
    );
    assert!(
        run.drained,
        "credited DMA bursts failed to drain: completed {} of {}",
        run.completed, run.accepted
    );
    assert_eq!(run.accepted, 200);
}

#[test]
fn credited_admission_drains_paced_stride7() {
    let run = run_saturation(stride7, 64, 600, false, 1);
    assert!(
        !run.latched,
        "detector latched on credited paced stride-7 (completed {})",
        run.completed
    );
    assert!(
        run.drained,
        "credited paced stride-7 failed to drain: completed {} of {}",
        run.completed, run.accepted
    );
    assert_eq!(run.accepted, 600);
}

#[test]
fn credited_admission_drains_greedy_stride7() {
    // The exact configuration of `legacy_admission_wedges_...`, fixed.
    let run = run_saturation(stride7, 200, 600, true, 1);
    assert!(
        !run.latched,
        "detector latched on credited greedy stride-7 (completed {})",
        run.completed
    );
    assert!(
        run.drained,
        "credited greedy stride-7 failed to drain: completed {} of {}",
        run.completed, run.accepted
    );
    assert_eq!(run.accepted, 600);
    assert!(
        run.health.contains("stalls: progressing"),
        "health summary misses the stall line:\n{}",
        run.health
    );
}
