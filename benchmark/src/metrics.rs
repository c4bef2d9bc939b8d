//! Every metric the benchmark prints: name, unit, direction.
//!
//! `BENCHMARK.json` at the repository root repeats these lists and adds
//! the bounds; a unit test holds the two together. Bounds are read from
//! that file (compiled in), never duplicated here.

use serde::Value;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// As `BENCHMARK.json` spells it.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Def {
    /// Name (the contract).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Higher,
    }
}

/// End-to-end metrics every workload reports, with a relative bound in
/// `BENCHMARK.json`.
pub const END_TO_END: [Def; 7] = [
    lo("host_ns_per_cycle", "ns"),
    hi("ops_per_s", "1/s"),
    lo("setup_s", "s"),
    lo("peak_rss_mib", "MiB"),
    hi("sim_ops_per_kcycle", "ops/kcycle"),
    lo("sim_latency_p50_cycles", "cycles"),
    lo("sim_latency_p99_cycles", "cycles"),
];

/// End-to-end metrics with an *absolute* bound, in points. They are 0
/// on a healthy run (`failed_ops_pct`) or exist on two workloads only
/// (`paper_error_pct`), so the driver's contract — every workload,
/// never 0, relative bound — cannot carry them as end-to-end metrics;
/// `BENCHMARK.json` lists them per layer, `run` prints them with the
/// end-to-end block and `compare` applies these bounds.
pub const ABSOLUTE: [(Def, f64); 2] = [
    (lo("failed_ops_pct", "%"), 0.0),
    (lo("paper_error_pct", "%"), 0.5),
];

/// `setup_s` may also worsen by this much whatever its relative bound
/// says: bare set-up is tens of milliseconds of noise.
pub const SETUP_FLOOR_S: f64 = 0.020;

/// End-to-end metrics that are host time: the ones `compare` reports
/// *unresolved* when the estimator gap is wider than the bound.
pub const HOST_TIME: [&str; 2] = ["host_ns_per_cycle", "ops_per_s"];

/// Per-layer metrics. A metric that does not apply to a workload (the
/// `txn.*` timings on `server_chi_mix`) reads 0 there.
pub const PER_LAYER: [Def; 78] = [
    // core: host time of the calls the harness makes itself.
    lo("core.tick_ns_per_cycle", "ns"),
    lo("core.tick_ns_p99", "ns"),
    lo("core.enqueue_ns_per_call", "ns"),
    lo("core.pop_delivered_ns_per_call", "ns"),
    lo("core.share_pct", "%"),
    // core: engine work per cycle (TickProfile).
    lo("core.stations_visited_per_cycle", "1/cycle"),
    hi("core.skip_fraction", "ratio"),
    lo("core.full_lane_sweeps_per_cycle", "1/cycle"),
    // core: what the simulated fabric did (NetStats).
    lo("core.deflections_per_delivered", "ratio"),
    lo("core.etag_laps_per_delivered", "ratio"),
    lo("core.itag_wait_cycles_per_injected", "cycles"),
    lo("core.swaps", "count"),
    lo("core.drm_entries", "count"),
    lo("core.bridge_crossings_per_delivered", "ratio"),
    lo("core.inject_losses_per_enqueued", "ratio"),
    lo("core.mean_hops", "hops"),
    // set-up phases.
    lo("core.topogen_generate_s", "s"),
    lo("core.spec_compile_s", "s"),
    lo("core.network_build_s", "s"),
    lo("server-cpu.build_s", "s"),
    lo("ai.build_s", "s"),
    lo("bench.warmup_s", "s"),
    // sim: engine variants against sequential K=1 (cycles/s ratio).
    hi("sim.par2_k1_ratio", "ratio"),
    hi("sim.par2_kmax_ratio", "ratio"),
    hi("sim.seq_kmax_ratio", "ratio"),
    // txn.
    lo("txn.submit_ns_per_call", "ns"),
    lo("txn.tick_ns_per_cycle", "ns"),
    lo("txn.tick_ns_p99", "ns"),
    lo("txn.drain_ns_per_call", "ns"),
    lo("txn.share_pct", "%"),
    lo("txn.backpressured_per_submit", "ratio"),
    lo("txn.reassembly_deferred_per_packet", "ratio"),
    lo("txn.flits_per_txn", "flits"),
    hi("txn.window_occupancy_mean", "slots"),
    lo("txn.read_latency_p50_cycles", "cycles"),
    lo("txn.read_latency_p99_cycles", "cycles"),
    lo("txn.write_np_latency_p50_cycles", "cycles"),
    lo("txn.write_np_latency_p99_cycles", "cycles"),
    lo("txn.atomic_latency_p50_cycles", "cycles"),
    lo("txn.atomic_latency_p99_cycles", "cycles"),
    // chi / server-cpu.
    lo("chi.issue_ns_per_call", "ns"),
    lo("chi.tick_ns_per_cycle", "ns"),
    lo("chi.tick_ns_p99", "ns"),
    lo("chi.take_completions_ns_per_call", "ns"),
    lo("chi.share_pct", "%"),
    lo("chi.cycles_per_request", "cycles"),
    lo("chi.read_latency_p50_cycles", "cycles"),
    lo("chi.read_latency_p99_cycles", "cycles"),
    lo("chi.write_latency_p50_cycles", "cycles"),
    lo("chi.write_latency_p99_cycles", "cycles"),
    // ai.
    lo("ai.tick_ns_per_cycle", "ns"),
    lo("ai.tick_ns_p99", "ns"),
    lo("ai.share_pct", "%"),
    hi("ai.read_tbs", "TB/s"),
    hi("ai.write_tbs", "TB/s"),
    hi("ai.dma_tbs", "TB/s"),
    // telemetry.
    lo("telemetry.all_planes_overhead_pct", "%"),
    lo("telemetry.trace_sink_overhead_pct", "%"),
    lo("telemetry.observatory_overhead_pct", "%"),
    lo("telemetry.recorder_overhead_pct", "%"),
    lo("telemetry.spans_overhead_pct", "%"),
    lo("telemetry.forensics_overhead_pct", "%"),
    lo("telemetry.export_s", "s"),
    hi("telemetry.snapshots", "count"),
    hi("telemetry.span_trees", "count"),
    hi("telemetry.trace_events", "count"),
    // workloads + harness: guards, not goals.
    lo("workloads.gen_ns_per_request", "ns"),
    lo("bench.driver_share_pct", "%"),
    lo("bench.trace_overhead_pct", "%"),
    lo("bench.run_s_median", "s"),
    lo("bench.run_s_q1", "s"),
    lo("bench.run_s_q3", "s"),
    lo("bench.run_spread_pct", "%"),
    lo("bench.slow_slice_pct", "%"),
    lo("bench.estimator_gap_pct", "%"),
    lo("bench.extra_runs", "count"),
    // absolute-bound end-to-end metrics (see `ABSOLUTE`).
    lo("failed_ops_pct", "%"),
    lo("paper_error_pct", "%"),
];

/// `BENCHMARK.json`, as compiled in.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The relative bound `BENCHMARK.json` fixes for end-to-end metric
/// `name`, as a share (0.06 = 6 %).
pub fn bound_of(name: &str) -> Option<f64> {
    let doc: Value = serde_json::from_str(BENCHMARK_JSON).ok()?;
    doc.get("end_to_end")?
        .as_array()?
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some(name))
        .and_then(|m| match m.get("bound")? {
            Value::Float(f) => Some(*f),
            Value::UInt(u) => Some(*u as f64),
            _ => None,
        })
}

/// The end-to-end definition called `name`, relative or absolute.
#[cfg(test)]
pub fn end_to_end_def(name: &str) -> Option<Def> {
    END_TO_END
        .iter()
        .chain(ABSOLUTE.iter().map(|(d, _)| d))
        .find(|d| d.name == name)
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::MATRIX;

    fn names_units_better(doc: &Value, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}`"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_repeats_these_lists() {
        let doc: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let want = |defs: &[Def]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| (d.name.into(), d.unit.into(), d.better.word().into()))
                .collect()
        };
        assert_eq!(names_units_better(&doc, "end_to_end"), want(&END_TO_END));
        assert_eq!(names_units_better(&doc, "per_layer"), want(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let matrix: Vec<&str> = MATRIX.iter().map(|w| w.name).collect();
        assert_eq!(workloads, matrix);
    }

    #[test]
    fn every_end_to_end_metric_has_a_bound_within_the_cap() {
        for d in &END_TO_END {
            let b = bound_of(d.name).unwrap_or_else(|| panic!("{} has no bound", d.name));
            assert!(b > 0.0 && b <= 0.25, "{}: {b}", d.name);
        }
        assert!(bound_of("failed_ops_pct").is_none());
        let setup = bound_of("setup_s").unwrap();
        assert!(END_TO_END
            .iter()
            .all(|d| bound_of(d.name).unwrap() <= setup));
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(d.name), "{} twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for (d, _) in &ABSOLUTE {
            assert!(PER_LAYER.contains(d));
        }
    }
}
