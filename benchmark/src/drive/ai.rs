//! `ai_stream_sat`: the paper's AI-Processor streaming at saturation.

use super::{blank_report, conservation_check, core_counters, stream_seed, Slicer};
use crate::estimate::summary_of_merged;
use crate::report::{Check, ChildReport, Size};
use crate::trace::{self, Tracer};
use noc_ai::{AiBandwidthReport, AiConfig, AiEngine, AiProcessor, AiTraffic};

/// Paper Table 7, R:W 1:1 row: total NoC bandwidth (TB/s).
pub const PAPER_TOTAL_TBS: f64 = 16.0;

/// Run the workload. `size` counts cycles.
///
/// The engine owns its traffic generator (closed loop, 16 outstanding
/// per core, Bernoulli DMA), so the only generated input is its seed.
/// Its byte counters are readable only through `AiEngine::run`, so a
/// slice is one `run(0, slice)` call — `run(0, 1)` per cycle when
/// traced, which simulates the identical thing.
pub fn run<T: Tracer>(seed: u64, size: Size, tr: &mut T) -> ChildReport {
    let mut rep = blank_report("ai_stream_sat", seed, size);
    tr.open(trace::SETUP);
    tr.open(trace::AI_BUILD);
    let proc = AiProcessor::build(AiConfig::default()).expect("the default AI-Processor is valid");
    let line_bytes = u64::from(proc.cfg.line_bytes);
    let traffic = AiTraffic {
        seed: stream_seed(seed, 0xA1),
        ..AiTraffic::default()
    };
    let mut engine = AiEngine::new(proc, traffic);
    tr.close();
    tr.open(trace::WARMUP);
    let warm = engine.run(size.warmup, 0);
    tr.close();
    let stats0 = engine.processor().net.stats();
    let profile0 = engine.processor().net.tick_profile();
    tr.close(); // setup

    let mut total = AiBandwidthReport {
        cycles: 0,
        read_bytes: 0,
        write_bytes: 0,
        dma_bytes: 0,
        clock_ghz: engine.processor().cfg.clock_ghz,
    };
    let mut error = warm.err();
    let start_cycle = engine.processor().net.now().raw();
    let mut slicer = Slicer::start(start_cycle, size.slices());
    'slices: for _ in 0..size.slices() {
        let calls = if T::ENABLED { size.slice } else { 1 };
        let per_call = size.slice / calls;
        let mut slice_bytes = 0;
        for _ in 0..calls {
            tr.iter_open();
            let r = tr.call(trace::AI_TICK, || engine.run(0, per_call));
            tr.iter_close();
            match r {
                Ok(r) => {
                    total.cycles += r.cycles;
                    total.read_bytes += r.read_bytes;
                    total.write_bytes += r.write_bytes;
                    total.dma_bytes += r.dma_bytes;
                    slice_bytes += r.read_bytes + r.write_bytes + r.dma_bytes;
                }
                Err(e) => {
                    error = Some(e);
                    break 'slices;
                }
            }
        }
        slicer.cut(engine.processor().net.now().raw());
        if slice_bytes == 0 {
            // A whole slice without one line moved: wedged.
            rep.stalled = true;
            break;
        }
    }

    let net = &engine.processor().net;
    let stats1 = net.stats();
    rep.setup_s = tr.last_secs(trace::SETUP);
    rep.setup_phases
        .insert("ai.build_s".to_string(), tr.last_secs(trace::AI_BUILD));
    rep.setup_phases
        .insert("bench.warmup_s".to_string(), tr.last_secs(trace::WARMUP));
    rep.cycles = slicer.total_cycles();
    rep.slice_ns = slicer.ns;
    rep.slice_cycles = slicer.cycles;
    // An operation is one 64 B line moved. The loop is closed and cut
    // at a fixed cycle, so lines in flight at the cut are not failures;
    // only an engine error or a wedge is.
    rep.ops = (total.read_bytes + total.write_bytes + total.dma_bytes) / line_bytes;
    rep.attempted = rep.ops.max(1);
    rep.failed = if error.is_some() || rep.stalled {
        net.in_flight()
    } else {
        0
    };
    rep.attempted += rep.failed;
    // Flit latency over the whole run, warm-up included (5 %): the
    // engine consumes its own deliveries, so the network's cumulative
    // log-bucket histograms are the only latency visible from outside.
    rep.latency = summary_of_merged(&stats1.total_latency);
    rep.net_fingerprint = crate::report::hash_words(&net.fingerprint());
    let mut words = net.fingerprint();
    words.extend([total.read_bytes, total.write_bytes, total.dma_bytes]);
    rep.sim_fingerprint = crate::report::hash_words(&words);
    core_counters(
        &mut rep.counters,
        &stats0,
        &stats1,
        (profile0, net.tick_profile()),
    );
    for (k, v) in [
        ("ai.read_tbs", total.read_tbs()),
        ("ai.write_tbs", total.write_tbs()),
        ("ai.dma_tbs", total.dma_tbs()),
    ] {
        rep.counters.insert(k.to_string(), v);
    }
    rep.paper_error_pct =
        Some(100.0 * (total.total_tbs() - PAPER_TOTAL_TBS).abs() / PAPER_TOTAL_TBS);
    rep.checks
        .push(conservation_check(&stats1, net.count_resident_flits()));
    rep.checks.push(Check::new(
        "engine_ran_clean",
        error.is_none(),
        error.map_or("no enqueue error".to_string(), |e| e.to_string()),
    ));
    rep
}
