//! Telemetry walkthrough: trace a two-chiplet workload flit-by-flit,
//! print the engine's own per-class latency percentiles, per-station
//! deflection heatmap and peak ring occupancy, and write the recorded
//! stream as a Chrome `trace_event` file you can open in
//! `chrome://tracing` or <https://ui.perfetto.dev> — plus the online
//! observatory: a live health report from the watchdog rules, a
//! Prometheus scrape sample rendered from the latest metrics snapshot,
//! the flight recorder's top-flow attribution table, and a
//! self-contained postmortem bundle dumped to JSONL.
//!
//! ```text
//! cargo run --example telemetry
//! ```

use noc_core::render::{ascii_heatmap, ascii_rings};
use noc_core::telemetry::{chrome_trace, flow_table_ascii, prometheus_text, TraceRecord};
use noc_core::telemetry::{HealthConfig, RecorderConfig, RingBufferSink};
use noc_core::{
    BridgeConfig, FlitClass, Network, NetworkConfig, NodeId, RingId, RingKind, TopologyBuilder,
};
use noc_sim::SimRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two chiplets: a compute die on a full ring, an accelerator die on
    // a half ring, joined by an RBRG-L2 bridge.
    let mut b = TopologyBuilder::new();
    let compute = b.add_chiplet("compute-die");
    let accel = b.add_chiplet("accel-die");
    let cring = b.add_ring(compute, RingKind::Full, 8)?;
    let aring = b.add_ring(accel, RingKind::Half, 6)?;
    let cpus: Vec<NodeId> = (0..4)
        .map(|i| b.add_node(format!("cpu{i}"), cring, i).expect("port"))
        .collect();
    let ddr = b.add_node("ddr", cring, 5)?;
    let npus: Vec<NodeId> = (0..3)
        .map(|i| b.add_node(format!("npu{i}"), aring, i).expect("port"))
        .collect();
    let hbm = b.add_node("hbm", aring, 4)?;
    b.add_bridge(BridgeConfig::l2(), cring, 7, aring, 5)?;
    let topo = b.build()?;

    // The only change versus an untraced run: hand the network a
    // recording sink instead of the default `NullSink`.
    let mut net = Network::with_sink(topo, NetworkConfig::default(), RingBufferSink::new(1 << 16));
    // Flight recorder on: windowed metrics + health watchdogs every 64
    // cycles, plus per-flow attribution, link occupancy sampling and
    // bounded snapshot/event retention for postmortem bundles.
    net.enable_flight_recorder(64, HealthConfig::default(), RecorderConfig::default());

    // Mixed workload: CPUs hammer DDR, stream tensors to the NPUs over
    // the bridge, and the NPUs fetch from HBM.
    let mut rng = SimRng::seed_from(7);
    let mut token = 0u64;
    let rings: Vec<RingId> = net.topology().rings().iter().map(|r| r.id).collect();
    let mut peak_occupancy = vec![0usize; rings.len()];
    let mut track_peaks = |net: &Network<RingBufferSink>| {
        for (peak, &ring) in peak_occupancy.iter_mut().zip(&rings) {
            *peak = (*peak).max(net.ring_occupancy(ring));
        }
    };
    for cycle in 0..4_000u64 {
        for &cpu in &cpus {
            let _ = net.enqueue(cpu, ddr, FlitClass::Request, 16, token);
            token += 1;
        }
        if cycle % 3 == 0 {
            let cpu = cpus[rng.gen_index(cpus.len())];
            let npu = npus[rng.gen_index(npus.len())];
            let _ = net.enqueue(cpu, npu, FlitClass::Data, 64, token);
            token += 1;
        }
        if cycle % 5 == 0 {
            let npu = npus[rng.gen_index(npus.len())];
            let _ = net.enqueue(npu, hbm, FlitClass::Request, 16, token);
            let _ = net.enqueue(hbm, npu, FlitClass::Data, 64, token);
            token += 1;
        }
        net.tick();
        track_peaks(&net);
        // DDR drains slowly (one flit every other cycle): its eject
        // queue backs up, and arrivals deflect with E-tag reservations —
        // exactly what the heatmap below should light up.
        if cycle % 2 == 0 {
            net.pop_delivered(ddr);
        }
        for dev in net.topology().devices().map(|d| d.id).collect::<Vec<_>>() {
            if dev != ddr {
                while net.pop_delivered(dev).is_some() {}
            }
        }
    }
    // Drain so every traced flit reaches its `Delivered` stamp.
    let mut spare = 0;
    while net.in_flight() > 0 && spare < 10_000 {
        net.tick();
        track_peaks(&net);
        for dev in net.topology().devices().map(|d| d.id).collect::<Vec<_>>() {
            while net.pop_delivered(dev).is_some() {}
        }
        spare += 1;
    }
    // Flush the final partial metrics window so the snapshot series
    // accounts for every event above.
    net.finish_metrics();

    let sink = net.sink();
    let counts = *sink.counts();
    let records: Vec<TraceRecord> = sink.records().cloned().collect();
    println!(
        "traced {} events across {} cycles ({} buffered, {} dropped)",
        counts.total(),
        net.now().raw(),
        sink.len(),
        sink.dropped()
    );
    println!(
        "  enqueued {} / injected {} / delivered {} | deflections {} \
         i-tags {} e-tags {} swaps {} bridge hops {}\n",
        counts.enqueued,
        counts.injected,
        counts.delivered,
        counts.deflected,
        counts.itag_set,
        counts.etag_reserved,
        counts.swap_triggered,
        counts.bridge_enqueued
    );

    // View 1: latency percentiles per flit class, from the engine's
    // own delivery histograms.
    let stats = net.stats();
    println!("end-to-end latency (cycles)\n  class        n    p50    p95    p99    max");
    for (class, h) in FlitClass::ALL.iter().zip(&stats.total_latency) {
        if h.count() > 0 {
            println!(
                "  {:<8} {:>5} {:>6} {:>6} {:>6} {:>6}",
                format!("{class:?}"),
                h.count(),
                h.percentile(0.50),
                h.percentile(0.95),
                h.percentile(0.99),
                h.max()
            );
        }
    }

    // View 2: where deflections cluster, station by station.
    println!();
    print!(
        "{}",
        ascii_heatmap(net.topology(), "deflections", &net.deflection_cells())
    );

    // View 3: each ring's peak occupancy over the run, tracked per cycle
    // above, against its stations × lanes slots.
    let peaks: Vec<(u64, u64)> = net
        .topology()
        .rings()
        .iter()
        .zip(&peak_occupancy)
        .map(|(r, &peak)| (peak as u64, (r.stations as usize * r.kind.lanes()) as u64))
        .collect();
    println!();
    print!("{}", ascii_rings(net.topology(), &peaks));

    // View 4: the observatory — live health verdicts and a Prometheus
    // scrape sample from the latest snapshot. The DDR bottleneck above
    // is exactly the kind of pressure the starvation watchdog reports.
    // The registry keeps only the recorder's window (the newest 32,
    // `SERIES_WINDOW`, without a recorder); `committed()` counts every
    // snapshot of the run.
    let reg = net.metrics().expect("observatory enabled");
    println!(
        "\nobservatory: {} snapshots committed, last {} retained (period {} cycles)",
        reg.committed(),
        reg.len(),
        reg.period()
    );
    print!("{}", net.health_report());
    let last = reg.last().expect("at least one snapshot");
    let scrape = prometheus_text(last);
    println!("\nPrometheus scrape sample (cycle {}):", last.cycle);
    for line in scrape.lines().take(12) {
        println!("  {line}");
    }
    println!(
        "  … {} more lines; retained window: snapshots_jsonl(reg.snapshots()), \
         whole series: reg.since(seq) polled as it is committed",
        scrape.lines().count().saturating_sub(12)
    );

    // View 5: who is actually using the network — the five heaviest
    // (src, dst) flows from the recorder's Space-Saving tables, with
    // node ids resolved to device names.
    let names = |id: u32| {
        net.topology()
            .nodes()
            .get(id as usize)
            .map_or_else(|| format!("n{id}"), |n| n.name.clone())
    };
    println!();
    print!("{}", flow_table_ascii(&net.flow_top(5), names));

    // View 6: a postmortem bundle on demand. Watchdog latches capture
    // these automatically (`net.bundles()`); an explicit dump freezes
    // the same self-contained JSONL — history, verdicts, flow top-K,
    // link heat, config — for offline reading.
    let bundle = net
        .dump_postmortem("telemetry example walkthrough")
        .expect("recorder enabled");
    let jsonl = bundle.to_jsonl();
    let bundle_path = "target/telemetry_postmortem.jsonl";
    std::fs::create_dir_all("target")?;
    std::fs::write(bundle_path, &jsonl)?;
    println!(
        "\nwrote {} ({} lines) — rendered summary:",
        bundle_path,
        jsonl.lines().count()
    );
    for line in bundle.render().lines().take(10) {
        println!("  {line}");
    }

    // View 7: Chrome trace_event export.
    let json = chrome_trace(&records);
    let path = "target/telemetry_trace.json";
    std::fs::create_dir_all("target")?;
    std::fs::write(path, &json)?;
    println!(
        "\nwrote {} ({} bytes) — open in chrome://tracing or https://ui.perfetto.dev",
        path,
        json.len()
    );
    Ok(())
}
