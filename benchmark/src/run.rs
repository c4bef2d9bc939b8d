//! The `run` command: plan the runs, spawn them, reduce them.

use crate::drive::txn::Planes;
use crate::estimate::{pct_over, quartiles, slice_estimate, unlucky_slice, SliceEstimate};
use crate::matrix::{self, Sizing, Workload, MATRIX};
use crate::metrics::{self, Def, ABSOLUTE, END_TO_END, PER_LAYER};
use crate::report::{
    Check, ChildReport, HostHeader, Metric, ResultFile, SideReport, Size, WorkloadResult, SCHEMA,
};
use crate::trace::SpanAgg;
use crate::Args;
use serde::Deserialize;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

/// Fewest untraced runs per workload: the estimator needs several
/// chances to meet the host's fast state on every slice.
pub const MIN_RUNS: usize = 5;
/// Runs of every traced and side measurement.
pub const SIDE_RUNS: usize = 3;
/// Most extra runs the noise rule may add to one workload.
pub const MAX_EXTRA_RUNS: usize = 2;
/// Under `--seconds S` the optional runs — the noise rule's extra runs,
/// and every round of traced and side runs after the first — start only
/// while the command has run for less than this many times `S`
/// (untraced, traced). Work is fixed, so a host three times slower than
/// the one the counts were sized on takes three times as long; this
/// keeps such a command well inside the driver's limit of 180 s.
pub const OPTIONAL_UNTIL: (f64, f64) = (1.5, 5.0);
/// Where traces go, relative to the directory the command runs in (the
/// repository root).
pub const OUT_DIR: &str = "benchmark/out";

const MIX: &str = "torus4_txn_mix";
const OBSERVED: &str = "torus4_txn_observed";
const TORUS8: &str = "torus8_flit_knee";
const SIM_VARIANTS: [&str; 4] = ["seq_k1", "par2_k1", "par2_kmax", "seq_kmax"];

/// Entry point of the `run` command.
pub fn main(raw: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(
        raw,
        &["workload", "seed", "runs", "seconds", "out"],
        &["smoke"],
        &["trace"],
    )?;
    let seed: u64 = args.num("seed")?.unwrap_or(1);
    let runs: usize = args.num("runs")?.unwrap_or(MIN_RUNS);
    if runs < MIN_RUNS {
        return Err(format!("--runs must be at least {MIN_RUNS}"));
    }
    let traced = match args.get("trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace takes 0 or 1, not `{v}`")),
    };
    let seconds: Option<f64> = args.num("seconds")?;
    let sizing = match (seconds, args.get("smoke")) {
        (Some(_), Some(_)) => return Err("--smoke and --seconds exclude each other".into()),
        (Some(s), None) if s > 0.0 => Sizing::Seconds(s),
        (Some(_), None) => return Err("--seconds must be positive".into()),
        (None, Some(_)) => Sizing::Smoke,
        (None, None) => Sizing::Default,
    };
    let selected: Vec<&'static Workload> = match args.get("workload") {
        Some(name) => vec![matrix::find(name).ok_or(format!("unknown workload `{name}`"))?],
        None => MATRIX.iter().collect(),
    };
    if seconds.is_some() && selected.len() != 1 {
        return Err("--seconds measures one workload: add --workload NAME".into());
    }

    let plan = Plan {
        selected,
        seed,
        runs,
        traced,
        sizing,
    };
    let file = plan.execute()?;
    print_results(&file);
    if let Some(path) = args.get("out") {
        let text = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
        std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    let violations = file.violations();
    for (w, c) in &violations {
        println!("CHECK FAILED  {w}: {} — {}", c.name, c.detail);
    }
    if seconds.is_some() {
        // The contract's one-line result, last on standard output.
        println!(
            "{}",
            contract_line(&file.workloads[0], traced, violations.is_empty())
        );
    }
    Ok(if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

struct Plan {
    selected: Vec<&'static Workload>,
    seed: u64,
    runs: usize,
    traced: bool,
    sizing: Sizing,
}

/// When optional runs stop being started (`None`: never).
fn optional_deadline(sizing: Sizing, traced: bool) -> Option<Instant> {
    match sizing {
        Sizing::Seconds(s) => {
            let factor = if traced {
                OPTIONAL_UNTIL.1
            } else {
                OPTIONAL_UNTIL.0
            };
            Some(Instant::now() + Duration::from_secs_f64(s * factor))
        }
        Sizing::Default | Sizing::Smoke => None,
    }
}

/// Everything measured for one workload, before reduction.
#[derive(Default)]
struct Raw {
    untraced: Vec<ChildReport>,
    traced: Vec<ChildReport>,
    sides: Vec<SideReport>,
    extra_runs: usize,
}

impl Plan {
    fn size_of(&self, w: &Workload) -> Size {
        w.size(self.sizing, self.runs)
    }

    fn execute(&self) -> Result<ResultFile, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
        let child = |args: Vec<String>| spawn(&exe, args);
        let mut raw: BTreeMap<&str, Raw> = BTreeMap::new();
        let deadline = optional_deadline(self.sizing, self.traced);
        let in_time = || deadline.is_none_or(|d| Instant::now() < d);

        // `torus4_txn_observed` is checked against `torus4_txn_mix`
        // (same seed, same requests): when the mix itself is not
        // selected it runs as a companion — once for the identity
        // check, every run when the overhead is wanted too — at the
        // observed workload's counts, which `--seconds` makes smaller
        // than the mix's own.
        let has = |name: &str| self.selected.iter().any(|w| w.name == name);
        let companion = (has(OBSERVED) && !has(MIX)).then(|| matrix::find(MIX).expect("in matrix"));
        let companion_runs = if self.traced { self.runs } else { 1 };
        let size_of = |w: &Workload| match companion {
            Some(c) if c.name == w.name => self.size_of(matrix::find(OBSERVED).expect("in matrix")),
            _ => self.size_of(w),
        };

        // Round-robin: run 1 of every workload, then run 2, … so a slow
        // spell of the host lands on different slices of different
        // workloads.
        for r in 0..self.runs {
            for w in self
                .selected
                .iter()
                .copied()
                .chain(companion.filter(|_| r < companion_runs))
            {
                let rep = run_workload(&child, w, self.seed, size_of(w), None)?;
                raw.entry(w.name).or_default().untraced.push(rep);
            }
        }
        // A slice no run caught in the fast state: one more run of that
        // workload, at most twice.
        for w in &self.selected {
            let entry = raw.get_mut(w.name).expect("ran above");
            let mut flagged = None;
            while entry.extra_runs < MAX_EXTRA_RUNS && in_time() {
                let slice = unlucky_slice_of(&entry.untraced);
                // The same slice flagged again after one more run: it
                // is slow by nature (a hash map growing), not by luck.
                if slice.is_none() || slice == flagged {
                    break;
                }
                flagged = slice;
                let rep = run_workload(&child, w, self.seed, self.size_of(w), None)?;
                entry.untraced.push(rep);
                entry.extra_runs += 1;
            }
        }
        if self.traced {
            std::fs::create_dir_all(OUT_DIR)
                .map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
            for round in 0..SIDE_RUNS {
                if round > 0 && !in_time() {
                    break;
                }
                for w in &self.selected {
                    let path = format!("{OUT_DIR}/trace-{}.json", w.name);
                    let rep = run_workload(&child, w, self.seed, self.size_of(w), Some(&path))?;
                    raw.get_mut(w.name).expect("ran above").traced.push(rep);
                }
            }
            for round in 0..SIDE_RUNS {
                if round > 0 && !in_time() {
                    break;
                }
                for w in &self.selected {
                    let (kind, variants): (&str, &[&str]) = match w.name {
                        TORUS8 => ("sim", &SIM_VARIANTS),
                        OBSERVED => ("telemetry", &Planes::VARIANTS),
                        _ => continue,
                    };
                    let size = w.side_size(self.size_of(w));
                    for v in variants {
                        let rep = run_side(&child, &format!("{kind}:{v}"), self.seed, size)?;
                        raw.get_mut(w.name).expect("ran above").sides.push(rep);
                    }
                }
            }
        }

        let mix_runs = raw.get(MIX).map(|r| r.untraced.clone());
        let workloads = self
            .selected
            .iter()
            .map(|w| {
                let r = &raw[w.name];
                let mix = (w.name == OBSERVED)
                    .then_some(mix_runs.as_deref())
                    .flatten();
                reduce(w, r, mix)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ResultFile {
            schema: SCHEMA,
            host: host_header(),
            seed: self.seed,
            runs: self.runs,
            traced: self.traced,
            sizing: self.sizing.label(),
            workloads,
        })
    }
}

/// Run `exe` with `args`, wait for it, and return the last line it
/// printed.
fn spawn(exe: &std::path::Path, args: Vec<String>) -> Result<String, String> {
    let out = Command::new(exe)
        .args(&args)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    if !out.status.success() {
        return Err(format!("child run {args:?} ended with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .map(str::to_string)
        .ok_or(format!("child run {args:?} printed nothing"))
}

fn parse<T: Deserialize>(line: &str) -> Result<T, String> {
    serde_json::from_str(line).map_err(|e| format!("cannot read a child's report: {e}"))
}

fn size_args(seed: u64, size: Size) -> Vec<String> {
    vec![
        "--seed".into(),
        seed.to_string(),
        "--warmup".into(),
        size.warmup.to_string(),
        "--measured".into(),
        size.measured.to_string(),
        "--slice".into(),
        size.slice.to_string(),
    ]
}

fn run_workload(
    child: &impl Fn(Vec<String>) -> Result<String, String>,
    w: &Workload,
    seed: u64,
    size: Size,
    trace_out: Option<&str>,
) -> Result<ChildReport, String> {
    let mut args = vec!["child".to_string(), "--workload".into(), w.name.into()];
    args.extend(size_args(seed, size));
    if let Some(path) = trace_out {
        args.extend(["--trace-out".to_string(), path.to_string()]);
    }
    parse(&child(args)?)
}

fn run_side(
    child: &impl Fn(Vec<String>) -> Result<String, String>,
    side: &str,
    seed: u64,
    size: Size,
) -> Result<SideReport, String> {
    let mut args = vec!["child".to_string(), "--side".into(), side.into()];
    args.extend(size_args(seed, size));
    parse(&child(args)?)
}

fn slices_of(runs: &[ChildReport]) -> Vec<&[u64]> {
    runs.iter().map(|r| r.slice_ns.as_slice()).collect()
}

fn unlucky_slice_of(runs: &[ChildReport]) -> Option<usize> {
    let slices = slices_of(runs);
    let cycles = &runs[0].slice_cycles;
    if slices.iter().any(|s| s.len() != cycles.len()) {
        return None;
    }
    unlucky_slice(&slices, cycles)
}

fn host_header() -> HostHeader {
    let first_line = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let git_rev = first_line("git", &["rev-parse", "HEAD"]).map_or("unknown".to_string(), |rev| {
        match first_line("git", &["status", "--porcelain"]) {
            Some(s) if !s.is_empty() => format!("{rev}-dirty"),
            _ => rev,
        }
    });
    HostHeader {
        nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        cpu_model: std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string()),
        rustc: first_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
        git_rev,
    }
}

/// The per-slice-minimum estimate of the side runs of `variant`.
fn side_estimate(sides: &[SideReport], variant: &str) -> Option<SliceEstimate> {
    let runs: Vec<&[u64]> = sides
        .iter()
        .filter(|s| s.variant == variant)
        .map(|s| s.slice_ns.as_slice())
        .collect();
    slice_estimate(&runs).ok()
}

/// Reduce the runs of one workload to its metrics and checks.
fn reduce(w: &Workload, raw: &Raw, mix: Option<&[ChildReport]>) -> Result<WorkloadResult, String> {
    let runs = &raw.untraced;
    let first = runs.first().ok_or(format!("{}: no runs", w.name))?;
    let est = slice_estimate(&slices_of(runs)).map_err(|e| format!("{}: {e}", w.name))?;
    let secs = est.min_sum_ns as f64 * 1e-9;
    let mut checks: Vec<Check> = Vec::new();
    for (i, r) in runs.iter().chain(&raw.traced).enumerate() {
        checks.extend(r.checks.iter().map(|c| Check {
            name: format!("run{i}.{}", c.name),
            ..c.clone()
        }));
    }

    // Simulated results are exact: every run of this commit must agree.
    let same = |r: &ChildReport| {
        r.sim_fingerprint == first.sim_fingerprint
            && r.net_fingerprint == first.net_fingerprint
            && (r.cycles, r.ops, r.attempted, r.failed)
                == (first.cycles, first.ops, first.attempted, first.failed)
            && r.latency == first.latency
    };
    let disagreeing = runs.iter().chain(&raw.traced).filter(|r| !same(r)).count();
    checks.push(Check::new(
        "simulation_repeats",
        disagreeing == 0,
        format!(
            "{} of {} runs (traced included) differ from run 0 in fingerprint, counts or latency",
            disagreeing,
            runs.len() + raw.traced.len()
        ),
    ));
    checks.push(Check::new(
        "no_failed_operations",
        first.failed == 0 && !first.stalled,
        format!(
            "{} of {} operations failed{}",
            first.failed,
            first.attempted,
            if first.stalled {
                "; the no-progress guard ended the run"
            } else {
                ""
            }
        ),
    ));

    let mut end_to_end = BTreeMap::new();
    let mut per_layer = BTreeMap::new();
    let put = |map: &mut BTreeMap<String, Metric>, defs: &[Def], name: &str, value: f64| {
        let def = defs
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not defined"));
        map.insert(
            name.to_string(),
            Metric {
                value,
                unit: def.unit.to_string(),
            },
        );
    };
    let fmin = |it: &mut dyn Iterator<Item = f64>| it.fold(f64::INFINITY, f64::min);

    {
        let mut e2e = |name: &str, v: f64| put(&mut end_to_end, &END_TO_END, name, v);
        e2e(
            "host_ns_per_cycle",
            est.min_sum_ns as f64 / first.cycles.max(1) as f64,
        );
        e2e("ops_per_s", first.ops as f64 / secs.max(1e-12));
        e2e("setup_s", fmin(&mut runs.iter().map(|r| r.setup_s)));
        e2e(
            "peak_rss_mib",
            runs.iter().map(|r| r.peak_rss_kib).max().unwrap_or(0) as f64 / 1024.0,
        );
        e2e(
            "sim_ops_per_kcycle",
            1000.0 * first.ops as f64 / first.cycles.max(1) as f64,
        );
        e2e("sim_latency_p50_cycles", first.latency.p50 as f64);
        e2e("sim_latency_p99_cycles", first.latency.p99 as f64);
    }

    let mut layer = |name: &str, v: f64| put(&mut per_layer, &PER_LAYER, name, v);
    layer(
        "failed_ops_pct",
        100.0 * first.failed as f64 / first.attempted.max(1) as f64,
    );
    if let Some(e) = first.paper_error_pct {
        layer("paper_error_pct", e);
    }
    // Exact counts, and set-up phases at their fastest.
    for (k, v) in &first.counters {
        if PER_LAYER.iter().any(|d| d.name == k) {
            layer(k, *v);
        }
    }
    for k in first.setup_phases.keys() {
        if PER_LAYER.iter().any(|d| d.name == k) {
            layer(k, fmin(&mut runs.iter().map(|r| r.setup_phases[k])));
        }
    }
    let generated = first
        .counters
        .get("bench.generated_requests")
        .copied()
        .unwrap_or((first.size.warmup + first.size.measured) as f64);
    if first.setup_phases.contains_key("workloads.generate_s") {
        let best = fmin(&mut runs.iter().map(|r| r.setup_phases["workloads.generate_s"]));
        layer(
            "workloads.gen_ns_per_request",
            best * 1e9 / generated.max(1.0),
        );
    }
    for class in [
        "txn.read",
        "txn.write_np",
        "txn.atomic",
        "chi.read",
        "chi.write",
    ] {
        if let Some(l) = first.class_latency.get(class) {
            layer(&format!("{class}_latency_p50_cycles"), l.p50 as f64);
            layer(&format!("{class}_latency_p99_cycles"), l.p99 as f64);
        }
    }

    // Noise, visible rather than hidden.
    let totals: Vec<f64> = runs
        .iter()
        .map(|r| r.slice_ns.iter().sum::<u64>() as f64 * 1e-9)
        .collect();
    let (q1, median, q3) = quartiles(&totals);
    let fastest = fmin(&mut totals.iter().copied());
    let slowest = totals.iter().copied().fold(0.0, f64::max);
    layer("bench.run_s_median", median);
    layer("bench.run_s_q1", q1);
    layer("bench.run_s_q3", q3);
    layer("bench.run_spread_pct", pct_over(slowest, fastest));
    layer("bench.slow_slice_pct", est.slow_pct());
    layer("bench.estimator_gap_pct", est.gap_pct());
    layer("bench.extra_runs", raw.extra_runs as f64);

    // Traced runs: per-call host time, corrected by the cost of an
    // empty span, from the fastest traced run. Shares are of that run's
    // own timed section, so host drift between runs cannot leak in.
    if let Some(best) = raw
        .traced
        .iter()
        .min_by_key(|r| r.slice_ns.iter().sum::<u64>())
    {
        let inside = best.span_cost.inside_ns;
        let span = |name: &str| best.spans.iter().find(|s| s.name == name);
        let net_ns = |s: &SpanAgg| (s.sum_ns as f64 - s.count as f64 * inside).max(0.0);
        let cycles = best.cycles.max(1) as f64;
        for (name, metric, per_cycle) in TIMED_CALLS {
            let Some(s) = span(name) else { continue };
            let denom = if per_cycle { cycles } else { s.calls as f64 };
            layer(metric, net_ns(s) / denom.max(1.0));
            if per_cycle {
                layer(
                    &metric.replace("_per_cycle", "_p99"),
                    (s.p99_ns as f64 - inside).max(0.0),
                );
            }
        }
        let split = TimeSplit::of(best);
        for (prefix, ns) in &split.layers {
            layer(&format!("{prefix}.share_pct"), 100.0 * ns / split.total());
        }
        layer(
            "bench.driver_share_pct",
            100.0 * split.driver_ns / split.total(),
        );
        if let Ok(traced_est) = slice_estimate(&slices_of(&raw.traced)) {
            layer(
                "bench.trace_overhead_pct",
                pct_over(traced_est.min_sum_ns as f64, est.min_sum_ns as f64),
            );
        }
    }

    // `sim` side runs: engine variants against sequential K = 1.
    if let Some(base) = side_estimate(&raw.sides, "seq_k1") {
        for v in &SIM_VARIANTS[1..] {
            if let Some(e) = side_estimate(&raw.sides, v) {
                layer(
                    &format!("sim.{v}_ratio"),
                    base.min_sum_ns as f64 / e.min_sum_ns.max(1) as f64,
                );
            }
        }
    }
    // Telemetry side runs: each plane alone against none.
    if let Some(base) = side_estimate(&raw.sides, "none") {
        for v in &Planes::VARIANTS[1..] {
            if let Some(e) = side_estimate(&raw.sides, v) {
                layer(
                    &format!("telemetry.{v}_overhead_pct"),
                    pct_over(e.min_sum_ns as f64, base.min_sum_ns as f64),
                );
            }
        }
    }
    if !raw.sides.is_empty() {
        let reference = &raw.sides[0].fingerprint;
        let differing = raw
            .sides
            .iter()
            .filter(|s| &s.fingerprint != reference)
            .count();
        checks.push(Check::new(
            "side_fingerprints_agree",
            differing == 0,
            format!(
                "{differing} of {} side runs differ from `{}`",
                raw.sides.len(),
                raw.sides[0].variant
            ),
        ));
    }
    // Observing never perturbs: the observed run against the mix.
    if let Some(mix) = mix.and_then(|m| m.first()) {
        let same = mix.sim_fingerprint == first.sim_fingerprint
            && mix.net_fingerprint == first.net_fingerprint
            && (mix.cycles, mix.ops, mix.failed) == (first.cycles, first.ops, first.failed)
            && mix.latency == first.latency;
        checks.push(Check::new(
            "observing_does_not_perturb",
            same,
            format!(
                "{OBSERVED} {} / {} cycles vs {MIX} {} / {} cycles",
                first.sim_fingerprint, first.cycles, mix.sim_fingerprint, mix.cycles
            ),
        ));
    }
    if let Some(mix_est) = mix
        .filter(|m| m.len() >= MIN_RUNS)
        .and_then(|m| slice_estimate(&slices_of(m)).ok())
    {
        layer(
            "telemetry.all_planes_overhead_pct",
            pct_over(est.min_sum_ns as f64, mix_est.min_sum_ns as f64),
        );
    }

    Ok(WorkloadResult {
        name: w.name.to_string(),
        size: first.size,
        end_to_end,
        per_layer,
        latency_samples: first.latency.count,
        latency_tail: (first.latency.tail_q, first.latency.tail),
        sim_fingerprint: first.sim_fingerprint.clone(),
        net_fingerprint: first.net_fingerprint.clone(),
        attempted: first.attempted,
        failed: first.failed,
        run_totals_s: totals,
        slice_ns: runs.iter().map(|r| r.slice_ns.clone()).collect(),
        slice_cycles: first.slice_cycles.clone(),
        extra_runs: raw.extra_runs,
        checks,
    })
}

/// The calls into the program made inside the timed loop: span name,
/// the per-layer metric its mean feeds, and whether that mean is per
/// simulated cycle (the `tick`s, which also report a p99) or per call.
const TIMED_CALLS: [(&str, &str, bool); 10] = [
    ("core.tick", "core.tick_ns_per_cycle", true),
    ("core.enqueue", "core.enqueue_ns_per_call", false),
    (
        "core.pop_delivered",
        "core.pop_delivered_ns_per_call",
        false,
    ),
    ("txn.submit", "txn.submit_ns_per_call", false),
    ("txn.tick", "txn.tick_ns_per_cycle", true),
    ("txn.drain", "txn.drain_ns_per_call", false),
    ("chi.issue", "chi.issue_ns_per_call", false),
    ("chi.tick", "chi.tick_ns_per_cycle", true),
    (
        "chi.take_completions",
        "chi.take_completions_ns_per_call",
        false,
    ),
    ("ai.tick", "ai.tick_ns_per_cycle", true),
];

/// A traced run's timed loop, split into the time inside each layer's
/// calls and the driver's own, with the tracer taken out. The driver's
/// time is the `iteration` spans' self time (duration minus child
/// spans) less what tracing put there: the inside part of each
/// iteration span's own clock reads and the outside part of every call
/// span's.
struct TimeSplit {
    /// (layer, ns inside its calls).
    layers: Vec<(&'static str, f64)>,
    driver_ns: f64,
}

impl TimeSplit {
    fn of(r: &ChildReport) -> Self {
        let cost = r.span_cost;
        let mut layers: Vec<(&'static str, f64)> = Vec::new();
        let mut call_spans = 0.0;
        for s in &r.spans {
            if !TIMED_CALLS.iter().any(|(name, ..)| *name == s.name) {
                continue;
            }
            let prefix = ["core", "txn", "chi", "ai"]
                .into_iter()
                .find(|p| s.name.split('.').next() == Some(p))
                .expect("timed calls enter a known layer");
            let ns = (s.sum_ns as f64 - s.count as f64 * cost.inside_ns).max(0.0);
            match layers.iter_mut().find(|(p, _)| *p == prefix) {
                Some((_, total)) => *total += ns,
                None => layers.push((prefix, ns)),
            }
            call_spans += s.count as f64;
        }
        let driver_ns = r
            .spans
            .iter()
            .find(|s| s.name == "iteration")
            .map_or(0.0, |it| {
                it.self_ns as f64
                    - it.count as f64 * cost.inside_ns
                    - call_spans * (cost.total_ns - cost.inside_ns).max(0.0)
            });
        TimeSplit {
            layers,
            driver_ns: driver_ns.max(0.0),
        }
    }

    fn total(&self) -> f64 {
        (self.driver_ns + self.layers.iter().map(|(_, ns)| ns).sum::<f64>()).max(1.0)
    }
}

fn print_results(file: &ResultFile) {
    let h = &file.host;
    println!(
        "noc-benchmark  schema {}  seed {}  runs {}  sizing {}  traced {}",
        file.schema, file.seed, file.runs, file.sizing, file.traced
    );
    println!(
        "host: {} × {}  |  {}  |  git {}",
        h.nproc, h.cpu_model, h.rustc, h.git_rev
    );
    for w in &file.workloads {
        let spec = matrix::find(&w.name).expect("result of a matrix workload");
        println!(
            "\n== {}  ({} {} after {} warm-up, {} slices × {} runs{}; {})",
            w.name,
            w.size.measured,
            spec.unit,
            w.size.warmup,
            w.size.slices(),
            w.slice_ns.len(),
            if w.extra_runs > 0 {
                format!(", {} of them extra", w.extra_runs)
            } else {
                String::new()
            },
            spec.loop_kind
        );
        println!("  why: {}", spec.why);
        println!("  end to end (an operation is one {})", spec.op);
        for d in &END_TO_END {
            let m = &w.end_to_end[d.name];
            let bound = metrics::bound_of(d.name).unwrap_or(0.0);
            println!(
                "    {:<34} {:>16.4} {:<10} {} is better, may worsen {:.1} %",
                d.name,
                m.value,
                m.unit,
                d.better.word(),
                bound * 100.0
            );
        }
        for (d, points) in &ABSOLUTE {
            match w.per_layer.get(d.name) {
                Some(m) => println!(
                    "    {:<34} {:>16.4} {:<10} lower is better, may worsen {points} points",
                    d.name, m.value, m.unit
                ),
                None => println!(
                    "    {:<34} {:>16} {:<10} unvalidated: the paper gives no figure for this fabric",
                    d.name, "-", d.unit
                ),
            }
        }
        println!(
            "    latency over {} samples; p{} = {} cycles is the highest percentile with ≥ 10 samples beyond it",
            w.latency_samples,
            w.latency_tail.0 * 100.0,
            w.latency_tail.1
        );
        println!(
            "    sim_fingerprint {}  net_fingerprint {}  attempted {}  failed {}",
            w.sim_fingerprint, w.net_fingerprint, w.attempted, w.failed
        );
        println!("  per layer");
        for d in &PER_LAYER {
            if ABSOLUTE.iter().any(|(a, _)| a.name == d.name) {
                continue;
            }
            if let Some(m) = w.per_layer.get(d.name) {
                println!("    {:<38} {:>16.4} {}", d.name, m.value, m.unit);
            }
        }
        let failed = w.checks.iter().filter(|c| !c.ok).count();
        println!(
            "  checks: {} passed, {} failed",
            w.checks.len() - failed,
            failed
        );
    }
}

/// The one JSON object the driver's contract asks for: end-to-end
/// metrics with tracing off, per-layer metrics (0 where one does not
/// apply) with tracing on.
fn contract_line(w: &WorkloadResult, traced: bool, correct: bool) -> String {
    let (defs, values): (&[Def], &BTreeMap<String, Metric>) = if traced {
        (&PER_LAYER, &w.per_layer)
    } else {
        (&END_TO_END, &w.end_to_end)
    };
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = values.get(d.name).map_or(0.0, |m| m.value);
            // JSON has no NaN or infinity.
            let v = if v.is_finite() { v } else { 0.0 };
            format!(
                "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
                d.name, v, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        correct,
        w.attempted.max(1),
        w.failed,
        metrics.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::blank_report;
    use crate::estimate::LatencySummary;

    fn run_with(slices: &[u64], setup: f64) -> ChildReport {
        let size = Size {
            warmup: 0,
            measured: slices.len() as u64 * 10,
            slice: 10,
        };
        let mut r = blank_report("torus8_flit_knee", 1, size);
        r.slice_ns = slices.to_vec();
        r.slice_cycles = vec![10; slices.len()];
        r.cycles = 10 * slices.len() as u64;
        r.ops = 500;
        r.attempted = 500;
        r.setup_s = setup;
        r.peak_rss_kib = 2048;
        r.latency = LatencySummary {
            count: 500,
            p50: 40,
            p99: 90,
            tail_q: 0.9,
            tail: 70,
        };
        r.sim_fingerprint = "aa".into();
        r.net_fingerprint = "aa".into();
        r
    }

    #[test]
    fn reduce_takes_slice_minima_and_flags_disagreement() {
        let w = matrix::find("torus8_flit_knee").unwrap();
        let raw = Raw {
            untraced: vec![run_with(&[100, 300], 0.5), run_with(&[300, 100], 0.4)],
            ..Raw::default()
        };
        let res = reduce(w, &raw, None).unwrap();
        // 200 ns over 20 cycles.
        assert_eq!(res.end_to_end["host_ns_per_cycle"].value, 10.0);
        assert_eq!(res.end_to_end["ops_per_s"].value, 500.0 / 200e-9);
        assert_eq!(res.end_to_end["setup_s"].value, 0.4);
        assert_eq!(res.end_to_end["peak_rss_mib"].value, 2.0);
        assert_eq!(res.end_to_end["sim_ops_per_kcycle"].value, 25_000.0);
        assert_eq!(res.per_layer["bench.run_spread_pct"].value, 0.0);
        assert_eq!(res.per_layer["bench.estimator_gap_pct"].value, 200.0);
        assert_eq!(res.per_layer["failed_ops_pct"].value, 0.0);
        assert!(res.checks.iter().all(|c| c.ok));

        let mut odd = run_with(&[100, 300], 0.5);
        odd.sim_fingerprint = "bb".into();
        let raw = Raw {
            untraced: vec![run_with(&[100, 300], 0.5), odd],
            ..Raw::default()
        };
        let res = reduce(w, &raw, None).unwrap();
        assert!(res
            .checks
            .iter()
            .any(|c| c.name == "simulation_repeats" && !c.ok));

        let raw = Raw {
            untraced: vec![run_with(&[100, 300], 0.5), run_with(&[100], 0.5)],
            ..Raw::default()
        };
        assert!(reduce(w, &raw, None).unwrap_err().contains("slice count"));
    }

    #[test]
    fn a_stalled_run_is_a_row_and_a_violation() {
        let w = matrix::find("torus8_flit_knee").unwrap();
        let mut r = run_with(&[100, 100], 0.5);
        r.stalled = true;
        r.failed = 20;
        r.attempted = 520;
        let raw = Raw {
            untraced: vec![r.clone(), r],
            ..Raw::default()
        };
        let res = reduce(w, &raw, None).unwrap();
        assert!((res.per_layer["failed_ops_pct"].value - 100.0 * 20.0 / 520.0).abs() < 1e-12);
        assert!(res
            .checks
            .iter()
            .any(|c| c.name == "no_failed_operations" && !c.ok));
    }

    #[test]
    fn time_split_takes_the_tracer_out() {
        use crate::trace::SpanCost;
        let agg = |name: &str, count: u64, calls: u64, sum_ns: u64| SpanAgg {
            name: name.into(),
            count,
            calls,
            sum_ns,
            // Only `iteration` has children here: the two call spans.
            self_ns: if name == "iteration" {
                sum_ns - 10_000
            } else {
                sum_ns
            },
            max_ns: 0,
            p50_ns: 0,
            p99_ns: 0,
        };
        let mut r = run_with(&[10_000, 10_000], 0.1);
        r.span_cost = SpanCost {
            inside_ns: 10.0,
            total_ns: 30.0,
        };
        // 100 cycles: one tick span and one batched pop span each.
        r.spans = vec![
            agg("iteration", 100, 0, 19_000),
            agg("core.tick", 100, 100, 8_000),
            agg("core.pop_delivered", 100, 2_800, 2_000),
            agg("setup", 1, 0, 999_999),
        ];
        let split = TimeSplit::of(&r);
        // core: (8000 − 100·10) + (2000 − 100·10) = 8000 ns inside calls.
        assert_eq!(split.layers, vec![("core", 8_000.0)]);
        // driver: 9000 ns of iteration self time − 100 iteration
        // spans·10 ns inside them − 200 call spans·20 ns outside them.
        assert_eq!(split.driver_ns, 9_000.0 - 100.0 * 10.0 - 200.0 * 20.0);
        assert_eq!(split.total(), 8_000.0 + split.driver_ns);
        // A tracer that cost more than was left reads as 0, not negative.
        r.span_cost.total_ns = 500.0;
        assert_eq!(TimeSplit::of(&r).driver_ns, 0.0);
    }

    #[test]
    fn contract_line_lists_every_metric_of_its_mode() {
        let w = matrix::find("torus8_flit_knee").unwrap();
        let raw = Raw {
            untraced: vec![run_with(&[100, 300], 0.5)],
            ..Raw::default()
        };
        let res = reduce(w, &raw, None).unwrap();
        for (traced, defs) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let line = contract_line(&res, traced, true);
            let v: serde::Value = serde_json::from_str(&line).unwrap();
            let keys: Vec<&str> = v
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let m = v.get("metrics").unwrap().as_object().unwrap();
            assert_eq!(m.len(), defs.len());
            for d in defs {
                let entry = v.get("metrics").unwrap().get(d.name).unwrap();
                assert_eq!(entry.get("unit").unwrap().as_str(), Some(d.unit));
            }
        }
    }
}
