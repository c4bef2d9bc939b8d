//! Transaction-layer walkthrough: DMA bursts, remote atomics and a
//! rectangle broadcast over a generated 4×4 torus, driven through
//! `noc-txn` instead of raw flits. Every transaction is packetized into
//! one header flit plus up to 256 × 64 B data flits, reassembled out of
//! order at the destination, and matched to its response through a
//! bounded per-device request window. The demo ends with the
//! transaction observatory's view: per-transaction p50/p99 latency
//! percentiles, the in-flight-window gauge, and the admission throttle
//! that keeps offered load below the deflection fabric's saturation
//! point — then the causal-span view: the slowest transaction's
//! critical path, phase by phase, reconciled to the cycle.
//!
//! ```text
//! cargo run --example transactions
//! ```

use noc_core::spec::devices_by_name;
use noc_core::telemetry::{critical_path, txn_snapshots_jsonl, SpanCollector};
use noc_core::{GridParams, Network, NetworkConfig, NodeId};
use noc_txn::{AtomicKind, TxnConfig, TxnFabric, TxnOp};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 16-chiplet torus from the generative builder: 16 stations per
    // ring, two devices per chiplet.
    let (topo, names) = GridParams::torus(4, 4)
        .with_stations(16)
        .with_devices(2)
        .with_seed(0x7261_6a65)
        .generate()?
        .compile()?;
    // Sorted-by-name device order: `compile` hands back a HashMap, and
    // its iteration order must never leak into the traffic schedule.
    let devs = devices_by_name(&names);

    let net = Network::new(topo, NetworkConfig::default());
    let cfg = TxnConfig {
        metrics_period: 64,
        ..TxnConfig::default()
    };
    // Causal span tracing on: every transaction leaves a span tree
    // (one span per packet, counters plus the critical flit's
    // timestamps), and the collector keeps the 4 slowest as exemplars.
    let mut fab = TxnFabric::with_spans(net, cfg, SpanCollector::new(256, 4));
    println!(
        "fabric: {} devices on a 4x4 torus, window {} per device, \
         admission cap {} flits in flight (half the fabric's ring slots)",
        devs.len(),
        fab.config().window,
        fab.outstanding_cap()
    );

    // Phase 1 — a DMA burst wave: every device writes 4 KiB (1 header +
    // 64 data flits per packet) to the device half the fabric away,
    // non-posted so each burst is acknowledged through the window.
    let n = devs.len();
    let mut accepted = 0usize;
    let mut submitted = 0usize;
    while accepted < n {
        let src = devs[submitted % n];
        let dst = devs[(submitted + n / 2) % n];
        if fab
            .submit(
                src,
                dst,
                TxnOp::Write {
                    bytes: 4096,
                    posted: false,
                },
            )?
            .is_some()
        {
            accepted += 1;
        }
        submitted += 1;
        fab.tick();
    }

    // Phase 2 — remote atomics: eight accumulate-and-fetch ops hammer
    // one shared cell, like a barrier counter.
    let cell = devs[n - 1];
    for &src in devs.iter().take(8) {
        while fab
            .submit(src, cell, TxnOp::Atomic(AtomicKind::Accumulate(1)))?
            .is_none()
        {
            fab.tick();
        }
        fab.tick();
    }

    // Phase 3 — a rectangle broadcast: device 0 pushes a 1 KiB tensor
    // tile to eight spread targets through the topology-derived fan-out
    // tree (one bridge crossing per foreign ring).
    let targets: Vec<NodeId> = (0..8).map(|t| devs[1 + t * (n / 8)]).collect();
    while fab.submit_broadcast(devs[0], &targets, 1024)?.is_none() {
        fab.tick();
    }

    assert!(fab.run_until_quiet(500_000), "fabric wedged");
    // Pad to the next sampling boundary so the last window commits.
    while fab.now().raw() % 64 != 0 {
        fab.tick();
    }

    let c = fab.counters();
    println!(
        "\ncompleted {} transactions in {} cycles: {} DMA bursts, {} atomics, {} broadcast",
        c.completed(),
        fab.now().raw(),
        c.writes_non_posted,
        c.atomics,
        c.broadcasts
    );
    println!(
        "  {} packets reassembled from {} flits ({} payload bytes); \
         backpressured submissions retried: {}",
        c.packets_reassembled, c.flits_sent, c.bytes_sent, c.backpressured
    );
    println!(
        "  conservation: {} stray, {} duplicate, {} late flits",
        c.stray_flits, c.duplicate_flits, c.late_responses
    );
    println!(
        "  barrier cell after 8 accumulates: {}",
        fab.atomic_cell(cell).expect("cell is a device")
    );

    // The observatory's per-transaction view: windowed latency
    // percentiles plus the in-flight gauges sampled every 64 cycles.
    let lat = fab.latency();
    println!(
        "\nper-transaction latency: p50 {} / p95 {} / p99 {} / max {} cycles over {} txns",
        lat.percentile(0.50),
        lat.percentile(0.95),
        lat.percentile(0.99),
        lat.percentile(1.0),
        lat.count()
    );
    // The registry keeps the newest 32 windows (`SERIES_WINDOW`) and
    // counts every one it committed; `since(seq)` polled as it commits
    // reads the whole series.
    let reg = fab.registry().expect("observatory on");
    let snaps = reg.snapshots();
    let peak_window = snaps.iter().map(|s| s.window_occupancy).max().unwrap_or(0);
    let peak_inflight = snaps.iter().map(|s| s.inflight_txns).max().unwrap_or(0);
    println!(
        "observatory: {} snapshots committed, last {} retained; over those, \
         peak {} txns in flight, peak window occupancy {}",
        reg.committed(),
        snaps.len(),
        peak_inflight,
        peak_window
    );
    println!("\nretained series (one JSONL line per 64-cycle window):");
    for line in txn_snapshots_jsonl(snaps).lines().take(6) {
        println!("  {line}");
    }
    if snaps.len() > 6 {
        println!("  … {} more retained windows", snaps.len() - 6);
    }

    // The last window as the registry keeps it.
    if let Some(last) = snaps.last() {
        println!("\nlast window: {last:?}");
    }

    // The causal-span view: take the slowest transaction the reservoir
    // kept and reduce it to its critical path. The phase sums account
    // for every cycle of the completion latency — the reconciliation
    // invariant the trace-report bench gates on.
    let slowest = fab.tail_exemplars().first().expect("exemplars retained");
    let cp = critical_path(slowest);
    println!(
        "\nslowest transaction: {} txn {} n{} -> n{}, {} cycles over {} packets",
        slowest.op_name(),
        slowest.txn,
        slowest.src,
        slowest.dst,
        cp.total,
        slowest.packets.len()
    );
    for link in &cp.links {
        println!(
            "  packet {} ({}): cycles {}..{} — staging {} inject {} ring {} recirc {} bridge {}",
            link.packet,
            link.role.name(),
            link.from,
            link.until,
            link.phases.staging,
            link.phases.inject,
            link.phases.ring,
            link.phases.recirc,
            link.phases.bridge
        );
    }
    assert!(
        cp.reconciles(),
        "critical path must account for every cycle"
    );
    println!(
        "  attribution: staging {} + inject {} + ring {} + recirc {} + bridge {} = {} cycles (exact)",
        cp.phases.staging,
        cp.phases.inject,
        cp.phases.ring,
        cp.phases.recirc,
        cp.phases.bridge,
        cp.total
    );
    Ok(())
}
