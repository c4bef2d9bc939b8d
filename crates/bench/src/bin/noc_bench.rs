//! `noc-bench` — machine-readable benchmark driver.
//!
//! ```text
//! noc-bench trajectory   [--quick] [--out PATH] [--check-overhead PCT]
//! noc-bench scaling      [--quick] [--out PATH] [--gate]
//! noc-bench trace-report [--quick] [--out PATH] [--trace PATH] [--gate]
//! noc-bench wedge-report [--quick] [--out PATH] [--bundle PATH] [--gate]
//! ```
//!
//! `trajectory` runs the performance-trajectory benchmark
//! ([`noc_experiments::trajectory`]) and writes the JSON report
//! (default `BENCH_PR7.json`). With `--check-overhead PCT` the process
//! exits non-zero when either the observatory's measured tick-loop
//! overhead or the flight recorder's overhead on top of it exceeds
//! `PCT` percent — the CI regression gate.
//!
//! `scaling` runs the epoch-length × thread-count sweep
//! ([`noc_experiments::scaling`]) on the 16-ring chain and writes
//! `BENCH_PR8.json`. Any fingerprint divergence across the exec × K
//! grid fails the run unconditionally. With `--gate` the process also
//! exits non-zero when `Parallel(4)` fails to beat `Sequential` by the
//! required 1.5× — unless the host has fewer than 4 logical cores, in
//! which case the gate skips and the artifact records the reason.
//!
//! `trace-report` runs the causal-span critical-path attribution
//! ([`noc_experiments::spanreport`]) on the 4×4 torus transaction
//! workloads, writes `BENCH_PR9.json` plus a Perfetto trace of the
//! slowest transactions (`TRACE_PR9.json`), and prints the per-phase
//! latency breakdown table. A workload whose phase sums fail to
//! reconcile with the registry's completion latencies — or whose span
//! stream diverges across engines — fails the run unconditionally.
//! With `--gate` the process also exits non-zero when span tracing
//! costs more than its budget: 1% with the `NullSpanSink` (which must
//! be free — it is the same monomorphization as the untraced fabric)
//! and 5% with a live `SpanCollector`.
//!
//! `wedge-report` runs the stall-forensics wedge-frontier sweep
//! ([`noc_experiments::wedgereport`]) on the 4×4 torus, writes
//! `BENCH_PR10.json` plus the latched postmortem bundle
//! (`WEDGE_PR10.jsonl`), and prints the frontier table and the first
//! latched wedge report. A detector false negative (an undrained run
//! that never latched), a false positive (a draining run that
//! latched), an empty frontier, or a credited run that fails to drain
//! all fail the run unconditionally. With `--gate` the process also
//! exits non-zero when the detector costs more than its budget: 1%
//! with the tracker idle, 5% with sampling on.

use noc_experiments::{scaling, spanreport, trajectory, wedgereport};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: noc-bench trajectory   [--quick] [--out PATH] [--check-overhead PCT]\n\
         \x20      noc-bench scaling      [--quick] [--out PATH] [--gate]\n\
         \x20      noc-bench trace-report [--quick] [--out PATH] [--trace PATH] [--gate]\n\
         \x20      noc-bench wedge-report [--quick] [--out PATH] [--bundle PATH] [--gate]"
    );
    ExitCode::from(2)
}

/// Write `json` to `out` and read it back, failing loudly on an empty
/// or truncated artifact (a silently rotten perf record looks green).
fn write_artifact(out: &str, json: &str) -> Result<(), ExitCode> {
    if let Err(e) = std::fs::write(out, format!("{json}\n")) {
        eprintln!("noc-bench: FAIL — cannot write {out}: {e}");
        return Err(ExitCode::FAILURE);
    }
    match std::fs::read_to_string(out) {
        Ok(written) if written.trim().is_empty() => {
            eprintln!("noc-bench: FAIL — {out} was written empty");
            Err(ExitCode::FAILURE)
        }
        Ok(written) => {
            if let Err(e) = serde_json::from_str::<serde::Value>(&written) {
                eprintln!("noc-bench: FAIL — {out} is not valid JSON after write: {e}");
                return Err(ExitCode::FAILURE);
            }
            Ok(())
        }
        Err(e) => {
            eprintln!("noc-bench: FAIL — {out} unreadable after write: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

fn run_scaling(args: &[String]) -> ExitCode {
    let mut quick = false;
    let mut out = "BENCH_PR8.json".to_string();
    let mut gate = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--gate" => gate = true,
            "--out" => match it.next() {
                Some(path) => out = path.clone(),
                None => return usage(),
            },
            _ => return usage(),
        }
    }

    eprintln!(
        "noc-bench scaling: running ({} mode)…",
        if quick { "quick" } else { "full" }
    );
    let report = scaling::run(quick);
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    if let Err(code) = write_artifact(&out, &json) {
        return code;
    }
    eprintln!(
        "  host: {} logical core(s), {}",
        report.host.logical_cores, report.host.cpu_model
    );
    for p in &report.points {
        eprintln!(
            "  {:>10} k={}: {:>9.0} ticks/sec ({:.2}× seq k=1, fingerprint {})",
            p.exec,
            p.k,
            p.ticks_per_sec,
            p.speedup_vs_seq_k1,
            if p.fingerprint_ok { "ok" } else { "DIVERGED" }
        );
    }
    eprintln!("noc-bench: wrote {out}");

    if report.points.iter().any(|p| !p.fingerprint_ok) {
        eprintln!("noc-bench: FAIL — exec × K grid disagrees on the simulation");
        return ExitCode::FAILURE;
    }
    match (&report.gate.passed, &report.gate.skip_reason) {
        (Some(true), _) => eprintln!(
            "noc-bench: speedup gate PASS — parallel4 {:.2}× ≥ {:.2}× sequential",
            report.gate.measured.unwrap_or(0.0),
            report.gate.required
        ),
        (Some(false), _) => {
            eprintln!(
                "noc-bench: speedup gate {} — parallel4 {:.2}× < {:.2}× sequential",
                if gate { "FAIL" } else { "MISS (not enforced)" },
                report.gate.measured.unwrap_or(0.0),
                report.gate.required
            );
            if gate {
                return ExitCode::FAILURE;
            }
        }
        (None, Some(reason)) => eprintln!("noc-bench: speedup gate SKIPPED — {reason}"),
        (None, None) => unreachable!("gate resolves or explains itself"),
    }
    ExitCode::SUCCESS
}

fn run_trace_report(args: &[String]) -> ExitCode {
    let mut quick = false;
    let mut out = "BENCH_PR9.json".to_string();
    let mut trace = "TRACE_PR9.json".to_string();
    let mut gate = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--gate" => gate = true,
            "--out" => match it.next() {
                Some(path) => out = path.clone(),
                None => return usage(),
            },
            "--trace" => match it.next() {
                Some(path) => trace = path.clone(),
                None => return usage(),
            },
            _ => return usage(),
        }
    }

    eprintln!(
        "noc-bench trace-report: running ({} mode)…",
        if quick { "quick" } else { "full" }
    );
    let bundle = spanreport::run(quick);
    let report = &bundle.report;
    let json = serde_json::to_string_pretty(report).expect("report serializes");
    if let Err(code) = write_artifact(&out, &json) {
        return code;
    }
    if let Err(code) = write_artifact(&trace, &bundle.perfetto) {
        return code;
    }

    // The headline: critical-path latency attribution, one row per
    // workload — printed to stdout so the CI log carries the table.
    println!("{}", bundle.table);
    for w in &report.workloads {
        eprintln!(
            "  {:>12}: {} txns in {} cycles, mean {:.1} p50 {} p99 {} cycles, {} exemplars (slowest {}), reconcile {}, span stream {}",
            w.workload,
            w.transactions,
            w.cycles,
            w.mean_latency,
            w.p50_latency,
            w.p99_latency,
            w.exemplars,
            w.slowest_latency,
            if w.reconciled { "exact" } else { "BROKEN" },
            if w.span_stream_ok { "ok" } else { "DIVERGED" }
        );
    }
    eprintln!(
        "  null-sink overhead: {:.2}% ({:.0} → {:.0} ticks/sec, paired min of {})",
        report.overhead.null_overhead_pct,
        report.overhead.base_ticks_per_sec,
        report.overhead.null_ticks_per_sec,
        report.overhead.repeats
    );
    eprintln!(
        "  enabled-span overhead: {:.2}% ({:.0} → {:.0} ticks/sec, paired min of {})",
        report.overhead.enabled_overhead_pct,
        report.overhead.null_ticks_per_sec,
        report.overhead.enabled_ticks_per_sec,
        report.overhead.repeats
    );
    eprintln!(
        "noc-bench: wrote {out} and {trace} ({} trace events)",
        report.trace_events
    );

    // Correctness invariants fail unconditionally — a trace that does
    // not reconcile is not an observability artifact, it is a lie.
    if report.workloads.iter().any(|w| !w.reconciled) {
        eprintln!("noc-bench: FAIL — phase sums do not reconcile with completion latencies");
        return ExitCode::FAILURE;
    }
    if report.workloads.iter().any(|w| !w.span_stream_ok) {
        eprintln!("noc-bench: FAIL — span streams diverge across engine variants");
        return ExitCode::FAILURE;
    }
    if report.workloads.iter().any(|w| w.transactions == 0) {
        eprintln!("noc-bench: FAIL — a workload completed nothing");
        return ExitCode::FAILURE;
    }
    if gate {
        const NULL_BUDGET_PCT: f64 = 1.0;
        const ENABLED_BUDGET_PCT: f64 = 5.0;
        if report.overhead.null_overhead_pct > NULL_BUDGET_PCT {
            eprintln!(
                "noc-bench: FAIL — NullSpanSink overhead {:.2}% exceeds the {NULL_BUDGET_PCT}% budget",
                report.overhead.null_overhead_pct
            );
            return ExitCode::FAILURE;
        }
        if report.overhead.enabled_overhead_pct > ENABLED_BUDGET_PCT {
            eprintln!(
                "noc-bench: FAIL — enabled span overhead {:.2}% exceeds the {ENABLED_BUDGET_PCT}% budget",
                report.overhead.enabled_overhead_pct
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "noc-bench: span overhead within budget (null {:.2}% ≤ {NULL_BUDGET_PCT}%, enabled {:.2}% ≤ {ENABLED_BUDGET_PCT}%)",
            report.overhead.null_overhead_pct, report.overhead.enabled_overhead_pct
        );
    }
    ExitCode::SUCCESS
}

fn run_wedge_report(args: &[String]) -> ExitCode {
    let mut quick = false;
    let mut out = "BENCH_PR10.json".to_string();
    let mut bundle_out = "WEDGE_PR10.jsonl".to_string();
    let mut gate = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--gate" => gate = true,
            "--out" => match it.next() {
                Some(path) => out = path.clone(),
                None => return usage(),
            },
            "--bundle" => match it.next() {
                Some(path) => bundle_out = path.clone(),
                None => return usage(),
            },
            _ => return usage(),
        }
    }

    eprintln!(
        "noc-bench wedge-report: running ({} mode)…",
        if quick { "quick" } else { "full" }
    );
    let bundle = wedgereport::run(quick);
    let report = &bundle.report;
    let json = serde_json::to_string_pretty(report).expect("report serializes");
    if let Err(code) = write_artifact(&out, &json) {
        return code;
    }
    if !bundle.bundle_jsonl.is_empty() {
        if let Err(e) = std::fs::write(&bundle_out, &bundle.bundle_jsonl) {
            eprintln!("noc-bench: FAIL — cannot write {bundle_out}: {e}");
            return ExitCode::FAILURE;
        }
    }

    // The headline: the frontier table, then the first latched wedge
    // report's cyclic chain — printed to stdout for the CI log.
    println!("{}", bundle.table);
    if !bundle.wedge_text.is_empty() {
        println!("{}", bundle.wedge_text);
    }
    eprintln!(
        "  detector-off overhead: {:.2}% ({:.0} → {:.0} ticks/sec, best of {})",
        report.overhead.detector_off_overhead_pct,
        report.overhead.base_ticks_per_sec,
        report.overhead.idle_ticks_per_sec,
        report.overhead.repeats
    );
    eprintln!(
        "  sampling-on overhead: {:.2}% ({:.0} → {:.0} ticks/sec, best of {})",
        report.overhead.sampling_overhead_pct,
        report.overhead.idle_ticks_per_sec,
        report.overhead.sampling_ticks_per_sec,
        report.overhead.repeats
    );
    eprintln!("noc-bench: wrote {out} and {bundle_out}");

    // Detector soundness fails unconditionally — a watchdog that
    // misses a wedge, or cries wolf on a draining fabric, is not an
    // observability artifact.
    if !report.fires_on_wedge {
        eprintln!("noc-bench: FAIL — an undrained run never latched the detector");
        return ExitCode::FAILURE;
    }
    if !report.silent_below {
        eprintln!("noc-bench: FAIL — the detector latched on a draining run");
        return ExitCode::FAILURE;
    }
    if !report.frontier_nonempty {
        eprintln!("noc-bench: FAIL — no legacy-admission run wedged; the frontier is gone");
        return ExitCode::FAILURE;
    }
    if !report.fix_drains_all {
        eprintln!("noc-bench: FAIL — a reassembly-credited run failed to drain");
        return ExitCode::FAILURE;
    }
    if gate {
        const OFF_BUDGET_PCT: f64 = 1.0;
        const SAMPLING_BUDGET_PCT: f64 = 5.0;
        if report.overhead.detector_off_overhead_pct > OFF_BUDGET_PCT {
            eprintln!(
                "noc-bench: FAIL — idle detector overhead {:.2}% exceeds the {OFF_BUDGET_PCT}% budget",
                report.overhead.detector_off_overhead_pct
            );
            return ExitCode::FAILURE;
        }
        if report.overhead.sampling_overhead_pct > SAMPLING_BUDGET_PCT {
            eprintln!(
                "noc-bench: FAIL — wait-graph sampling overhead {:.2}% exceeds the {SAMPLING_BUDGET_PCT}% budget",
                report.overhead.sampling_overhead_pct
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "noc-bench: detector overhead within budget (off {:.2}% ≤ {OFF_BUDGET_PCT}%, sampling {:.2}% ≤ {SAMPLING_BUDGET_PCT}%)",
            report.overhead.detector_off_overhead_pct, report.overhead.sampling_overhead_pct
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("scaling") => return run_scaling(&args[1..]),
        Some("trace-report") => return run_trace_report(&args[1..]),
        Some("wedge-report") => return run_wedge_report(&args[1..]),
        Some("trajectory") => {}
        _ => return usage(),
    }
    let mut quick = false;
    let mut out = "BENCH_PR7.json".to_string();
    let mut check_overhead: Option<f64> = None;
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => match it.next() {
                Some(path) => out = path.clone(),
                None => return usage(),
            },
            "--check-overhead" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(pct) => check_overhead = Some(pct),
                None => return usage(),
            },
            _ => return usage(),
        }
    }

    eprintln!(
        "noc-bench trajectory: running ({} mode)…",
        if quick { "quick" } else { "full" }
    );
    let report = trajectory::run(quick);
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    if let Err(code) = write_artifact(&out, &json) {
        return code;
    }
    for w in &report.workloads {
        eprintln!(
            "  {:>12}: {:.3} flits/cycle, p50 {} p99 {} cycles, deflection rate {:.3}",
            w.workload,
            w.throughput_flits_per_cycle,
            w.p50_latency,
            w.p99_latency,
            w.deflection_rate
        );
    }
    for e in &report.exec_sweep {
        eprintln!(
            "  {:>12}: {:.0} ticks/sec (fingerprint {})",
            e.exec,
            e.ticks_per_sec,
            if e.fingerprint_ok { "ok" } else { "DIVERGED" }
        );
    }
    for t in &report.topo_scaling {
        eprintln!(
            "  {:>12}: {} chiplets / {} stations, {:.0} ticks/sec, {:.3} flits/cycle (fingerprint {})",
            t.fabric,
            t.chiplets,
            t.stations,
            t.ticks_per_sec,
            t.throughput_flits_per_cycle,
            if t.fingerprint_ok { "ok" } else { "DIVERGED" }
        );
    }
    for t in &report.txn_workloads {
        eprintln!(
            "  {:>12}: {} txns in {} cycles on {}, p50 {} p99 {} cycles, {:.1} B/cycle, window peak {} (fingerprint {})",
            t.workload,
            t.transactions,
            t.cycles,
            t.fabric,
            t.p50_latency,
            t.p99_latency,
            t.bytes_per_cycle,
            t.window_peak,
            if t.fingerprint_ok { "ok" } else { "DIVERGED" }
        );
    }
    eprintln!(
        "  observatory overhead: {:.2}% ({:.0} → {:.0} ticks/sec, paired min of {})",
        report.overhead.overhead_pct,
        report.overhead.plain_ticks_per_sec,
        report.overhead.metrics_ticks_per_sec,
        report.overhead.repeats
    );
    eprintln!(
        "  flight-recorder overhead: {:.2}% ({:.0} → {:.0} ticks/sec, paired min of {})",
        report.recorder_overhead.overhead_pct,
        report.recorder_overhead.metrics_ticks_per_sec,
        report.recorder_overhead.recorder_ticks_per_sec,
        report.recorder_overhead.repeats
    );
    eprintln!("noc-bench: wrote {out}");

    if report.exec_sweep.iter().any(|e| !e.fingerprint_ok) {
        eprintln!("noc-bench: FAIL — execution modes disagree on the simulation");
        return ExitCode::FAILURE;
    }
    if report.topo_scaling.iter().any(|t| !t.fingerprint_ok) {
        eprintln!("noc-bench: FAIL — generated-topology runs disagree across exec modes");
        return ExitCode::FAILURE;
    }
    if report.txn_workloads.iter().any(|t| !t.fingerprint_ok) {
        eprintln!("noc-bench: FAIL — transaction runs disagree across exec modes");
        return ExitCode::FAILURE;
    }
    if report.txn_workloads.iter().any(|t| t.transactions == 0) {
        eprintln!("noc-bench: FAIL — a transaction point completed nothing");
        return ExitCode::FAILURE;
    }
    if let Some(limit) = check_overhead {
        if report.overhead.overhead_pct > limit {
            eprintln!(
                "noc-bench: FAIL — metrics overhead {:.2}% exceeds the {limit}% budget",
                report.overhead.overhead_pct
            );
            return ExitCode::FAILURE;
        }
        if report.recorder_overhead.overhead_pct > limit {
            eprintln!(
                "noc-bench: FAIL — flight-recorder overhead {:.2}% exceeds the {limit}% budget",
                report.recorder_overhead.overhead_pct
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "noc-bench: overhead within the {limit}% budget (metrics {:.2}%, recorder {:.2}%)",
            report.overhead.overhead_pct, report.recorder_overhead.overhead_pct
        );
    }
    ExitCode::SUCCESS
}
