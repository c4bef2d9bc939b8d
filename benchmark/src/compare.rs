//! The `compare` command: apply `BENCHMARK.json`'s bounds to two result
//! files, one row per (workload, end-to-end metric).

use crate::estimate::{quartiles, slice_estimate};
use crate::metrics::{self, Better, Def, ABSOLUTE, END_TO_END, HOST_TIME, SETUP_FLOOR_S};
use crate::report::{ResultFile, WorkloadResult};
use std::process::ExitCode;

/// What a row says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Moved by no more than the bound, either way.
    Within,
    /// Worsened by more than the bound.
    Worse,
    /// A host-time metric whose estimator gap, on either side, is wider
    /// than the bound: the measurement cannot tell.
    Unresolved,
    /// One side does not report the metric.
    Missing,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within bound",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "UNRESOLVED",
            Verdict::Missing => "missing",
        }
    }
}

/// The allowance a metric may worsen by.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the base value (plus an absolute floor).
    Relative { share: f64, floor: f64 },
    /// Points, whatever the base.
    Absolute(f64),
}

/// Judge `new` against `base`. `gap_pct` is the wider of the two sides'
/// `bench.estimator_gap_pct` for host-time metrics, `None` otherwise.
pub fn judge(def: Def, bound: Bound, base: f64, new: f64, gap_pct: Option<f64>) -> Verdict {
    let allowance = match bound {
        Bound::Relative { share, floor } => (share * base.abs()).max(floor),
        Bound::Absolute(points) => points,
    };
    if let (Some(gap), Bound::Relative { share, .. }) = (gap_pct, bound) {
        if gap > share * 100.0 {
            return Verdict::Unresolved;
        }
    }
    // Positive = worse, whichever way the metric points.
    let worsening = match def.better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    if worsening > allowance {
        Verdict::Worse
    } else if -worsening > allowance && allowance > 0.0 {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// One printed row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: &'static str,
    /// Base value (file A).
    pub base: Option<f64>,
    /// New value (file B).
    pub new: Option<f64>,
    /// What the bound says.
    pub verdict: Verdict,
    /// The bound, as printed.
    pub bound: String,
}

fn value(w: &WorkloadResult, name: &str) -> Option<f64> {
    w.end_to_end
        .get(name)
        .or_else(|| w.per_layer.get(name))
        .map(|m| m.value)
}

/// Every row for two result files; workloads are matched by name, in
/// A's order.
pub fn rows(a: &ResultFile, b: &ResultFile) -> Vec<Row> {
    let mut out = Vec::new();
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            continue;
        };
        let gap = value(wa, "bench.estimator_gap_pct")
            .unwrap_or(0.0)
            .max(value(wb, "bench.estimator_gap_pct").unwrap_or(0.0));
        let relative = END_TO_END.iter().map(|d| {
            let share = metrics::bound_of(d.name).unwrap_or(0.0);
            let floor = if d.name == "setup_s" {
                SETUP_FLOOR_S
            } else {
                0.0
            };
            (*d, Bound::Relative { share, floor })
        });
        let absolute = ABSOLUTE.iter().map(|(d, p)| (*d, Bound::Absolute(*p)));
        for (def, bound) in relative.chain(absolute) {
            let (base, new) = (value(wa, def.name), value(wb, def.name));
            let verdict = match (base, new) {
                (Some(x), Some(y)) => {
                    let gap = HOST_TIME.contains(&def.name).then_some(gap);
                    judge(def, bound, x, y, gap)
                }
                // A metric neither side reports (`paper_error_pct` on a
                // generated torus) is not a row.
                (None, None) => continue,
                _ => Verdict::Missing,
            };
            out.push(Row {
                workload: wa.name.clone(),
                metric: def.name,
                base,
                new,
                verdict,
                bound: match bound {
                    Bound::Relative { share, floor } if floor > 0.0 => {
                        format!("{:.1} % or {:.0} ms", share * 100.0, floor * 1e3)
                    }
                    Bound::Relative { share, .. } => format!("{:.1} %", share * 100.0),
                    Bound::Absolute(p) => format!("+{p} points"),
                },
            });
        }
    }
    out
}

/// Σ per-slice minima of a workload's untraced runs (s).
fn minima_s(w: &WorkloadResult) -> Option<f64> {
    let runs: Vec<&[u64]> = w.slice_ns.iter().map(Vec::as_slice).collect();
    slice_estimate(&runs)
        .ok()
        .map(|e| e.min_sum_ns as f64 * 1e-9)
}

/// Entry point of the `compare` command. Exit code 0: nothing worse or
/// unresolved; 1: something worse; 3: nothing worse, something
/// unresolved or missing.
pub fn main(raw: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = raw else {
        return Err("compare takes two result files: compare A.json B.json".into());
    };
    let load = |path: &String| -> Result<ResultFile, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path} is not a result file: {e}"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!(
        "base A = {a_path}  (git {}, seed {}, {})",
        a.host.git_rev, a.seed, a.sizing
    );
    println!(
        "new  B = {b_path}  (git {}, seed {}, {})",
        b.host.git_rev, b.seed, b.sizing
    );
    if (a.seed, &a.sizing) != (b.seed, &b.sizing) {
        println!("note: the files differ in seed or sizing; simulated metrics are not expected to be equal");
    }
    println!(
        "{:<22} {:<26} {:>16} {:>16} {:>9}  {:<16} verdict",
        "workload", "metric", "A (base)", "B", "B/A", "may worsen by"
    );
    let rows = rows(&a, &b);
    for r in &rows {
        let num = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.4}"));
        let ratio = match (r.base, r.new) {
            (Some(x), Some(y)) if x != 0.0 => format!("{:.4}", y / x),
            _ => "-".to_string(),
        };
        println!(
            "{:<22} {:<26} {:>16} {:>16} {:>9}  {:<16} {}",
            r.workload,
            r.metric,
            num(r.base),
            num(r.new),
            ratio,
            r.bound,
            r.verdict.word()
        );
    }
    for wa in &a.workloads {
        if let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) {
            let same = wa.sim_fingerprint == wb.sim_fingerprint;
            println!(
                "{:<22} sim_fingerprint {} {} {}",
                wa.name,
                wa.sim_fingerprint,
                if same { "==" } else { "!=" },
                wb.sim_fingerprint
            );
        }
    }
    println!("\nthe timed section both ways (s): Σ per-slice minima, the estimator, against the median of run totals");
    println!(
        "{:<22} {:>10} {:>10} {:>8}   {:>10} {:>10} {:>8}",
        "workload", "A minima", "B minima", "B/A", "A median", "B median", "B/A"
    );
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            continue;
        };
        if let (Some(ma), Some(mb)) = (minima_s(wa), minima_s(wb)) {
            let (_, da, _) = quartiles(&wa.run_totals_s);
            let (_, db, _) = quartiles(&wb.run_totals_s);
            println!(
                "{:<22} {:>10.4} {:>10.4} {:>8.4}   {:>10.4} {:>10.4} {:>8.4}",
                wa.name,
                ma,
                mb,
                mb / ma,
                da,
                db,
                db / da
            );
        }
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "\n{} rows: {} better, {} within bound, {} worse, {} unresolved, {} missing",
        rows.len(),
        count(Verdict::Better),
        count(Verdict::Within),
        count(Verdict::Worse),
        count(Verdict::Unresolved),
        count(Verdict::Missing)
    );
    Ok(if count(Verdict::Worse) > 0 {
        ExitCode::FAILURE
    } else if count(Verdict::Unresolved) + count(Verdict::Missing) > 0 {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end_def;

    const SIX: Bound = Bound::Relative {
        share: 0.06,
        floor: 0.0,
    };

    #[test]
    fn lower_is_better_metrics() {
        let d = end_to_end_def("host_ns_per_cycle").unwrap();
        assert_eq!(judge(d, SIX, 100.0, 105.9, Some(1.0)), Verdict::Within);
        assert_eq!(judge(d, SIX, 100.0, 94.1, Some(1.0)), Verdict::Within);
        assert_eq!(judge(d, SIX, 100.0, 106.1, Some(1.0)), Verdict::Worse);
        assert_eq!(judge(d, SIX, 100.0, 93.9, Some(1.0)), Verdict::Better);
    }

    #[test]
    fn higher_is_better_metrics() {
        let d = end_to_end_def("ops_per_s").unwrap();
        assert_eq!(judge(d, SIX, 1000.0, 950.0, Some(0.0)), Verdict::Within);
        assert_eq!(judge(d, SIX, 1000.0, 930.0, Some(0.0)), Verdict::Worse);
        assert_eq!(judge(d, SIX, 1000.0, 1070.0, Some(0.0)), Verdict::Better);
    }

    #[test]
    fn a_wide_estimator_gap_is_unresolved_not_unchanged() {
        let d = end_to_end_def("host_ns_per_cycle").unwrap();
        // Identical values, but the estimator itself is 7 % uncertain.
        assert_eq!(judge(d, SIX, 100.0, 100.0, Some(7.0)), Verdict::Unresolved);
        assert_eq!(judge(d, SIX, 100.0, 150.0, Some(7.0)), Verdict::Unresolved);
        // Exact (simulated) metrics carry no gap and are always judged.
        let p99 = end_to_end_def("sim_latency_p99_cycles").unwrap();
        assert_eq!(judge(p99, SIX, 100.0, 100.0, None), Verdict::Within);
    }

    #[test]
    fn absolute_and_floored_bounds() {
        let failed = end_to_end_def("failed_ops_pct").unwrap();
        assert_eq!(
            judge(failed, Bound::Absolute(0.0), 0.0, 0.0, None),
            Verdict::Within
        );
        assert_eq!(
            judge(failed, Bound::Absolute(0.0), 0.0, 0.001, None),
            Verdict::Worse
        );
        // No allowance means no "better" either: fewer failures from a
        // non-zero base is simply within.
        assert_eq!(
            judge(failed, Bound::Absolute(0.0), 1.0, 0.5, None),
            Verdict::Within
        );
        let paper = end_to_end_def("paper_error_pct").unwrap();
        assert_eq!(
            judge(paper, Bound::Absolute(0.5), 7.2, 7.6, None),
            Verdict::Within
        );
        assert_eq!(
            judge(paper, Bound::Absolute(0.5), 7.2, 7.8, None),
            Verdict::Worse
        );
        let setup = end_to_end_def("setup_s").unwrap();
        let b = Bound::Relative {
            share: 0.10,
            floor: 0.020,
        };
        // 10 % of 50 ms is 5 ms; the 20 ms floor governs.
        assert_eq!(judge(setup, b, 0.050, 0.065, None), Verdict::Within);
        assert_eq!(judge(setup, b, 0.050, 0.075, None), Verdict::Worse);
        assert_eq!(judge(setup, b, 1.0, 1.09, None), Verdict::Within);
        assert_eq!(judge(setup, b, 1.0, 1.11, None), Verdict::Worse);
    }
}
