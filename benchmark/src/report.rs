//! What a child process hands back, and the result file the parent
//! writes: one schema for every workload.

use crate::estimate::LatencySummary;
use crate::trace::{SpanAgg, SpanCost};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Version of the result-file schema.
pub const SCHEMA: u32 = 1;

/// The exact amount of work one run of a workload does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Size {
    /// Warm-up, in the workload's unit (requests, cycles or
    /// transactions); part of set-up.
    pub warmup: u64,
    /// Timed section, same unit.
    pub measured: u64,
    /// Unit of work per slice; `measured` is a multiple of it.
    pub slice: u64,
}

impl Size {
    /// Slices in the timed section.
    pub fn slices(&self) -> u64 {
        self.measured / self.slice
    }
}

/// One output check.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The numbers behind the verdict.
    pub detail: String,
}

impl Check {
    /// A check with its evidence.
    pub fn new(name: &str, ok: bool, detail: String) -> Self {
        Check {
            name: name.to_string(),
            ok,
            detail,
        }
    }
}

/// One run of one workload in its own process.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ChildReport {
    /// Workload name.
    pub workload: String,
    /// Traffic seed.
    pub seed: u64,
    /// Whether calls were traced.
    pub traced: bool,
    /// The work done.
    pub size: Size,
    /// Everything before the timed section (s).
    pub setup_s: f64,
    /// Set-up phases by metric name (s).
    pub setup_phases: BTreeMap<String, f64>,
    /// Wall time of each slice (ns).
    pub slice_ns: Vec<u64>,
    /// Simulated cycles each slice covered.
    pub slice_cycles: Vec<u64>,
    /// Simulated cycles in the timed section.
    pub cycles: u64,
    /// Operations completed in the timed section.
    pub ops: u64,
    /// Operations attempted (accepted plus refused).
    pub attempted: u64,
    /// Refused, failed, or incomplete at the stall guard or drain bound.
    pub failed: u64,
    /// Whether the no-progress guard ended the run.
    pub stalled: bool,
    /// Per-operation simulated latency.
    pub latency: LatencySummary,
    /// The same, per operation class.
    pub class_latency: BTreeMap<String, LatencySummary>,
    /// Hash of the protocol-level fingerprint (`TxnFabric::fingerprint`
    /// where there is one, else the network's).
    pub sim_fingerprint: String,
    /// Hash of `Network::fingerprint()` alone.
    pub net_fingerprint: String,
    /// Exact per-layer counts and ratios read from the program's public
    /// counters, by metric name.
    pub counters: BTreeMap<String, f64>,
    /// Error against the paper, where the paper gives a figure (%).
    pub paper_error_pct: Option<f64>,
    /// `VmHWM` of the process (KiB).
    pub peak_rss_kib: u64,
    /// Per-name span aggregates (traced runs only).
    pub spans: Vec<SpanAgg>,
    /// Measured cost of an empty span (traced runs only).
    pub span_cost: SpanCost,
    /// Where the Chrome trace went (traced runs only).
    pub trace_file: Option<String>,
    /// Per-run output checks.
    pub checks: Vec<Check>,
}

/// One side measurement (a `sim` engine variant, a telemetry plane
/// alone) in its own process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SideReport {
    /// Variant label.
    pub variant: String,
    /// Wall time of each slice (ns).
    pub slice_ns: Vec<u64>,
    /// Simulated cycles in the timed section.
    pub cycles: u64,
    /// Hash of the fingerprint.
    pub fingerprint: String,
}

/// Where and on what the numbers were taken.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostHeader {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// CPU model from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD` (plus `-dirty`), or `unknown` outside a
    /// repository.
    pub git_rev: String,
}

/// A metric value with its unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// The value, as measured.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// Everything measured for one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// The exact counts used.
    pub size: Size,
    /// End-to-end metrics by name.
    pub end_to_end: BTreeMap<String, Metric>,
    /// Per-layer metrics by name (traced and side runs fill most).
    pub per_layer: BTreeMap<String, Metric>,
    /// Samples behind `sim_latency_*`.
    pub latency_samples: u64,
    /// Highest percentile with ≥ 10 samples beyond it, and its value.
    pub latency_tail: (f64, u64),
    /// `sim_fingerprint`, equal in every run.
    pub sim_fingerprint: String,
    /// `Network::fingerprint()` hash, equal in every run.
    pub net_fingerprint: String,
    /// Operations attempted in one run.
    pub attempted: u64,
    /// Operations failed in one run.
    pub failed: u64,
    /// Total of each untraced run's slices (s), in run order.
    pub run_totals_s: Vec<f64>,
    /// Every untraced run's slice times (ns): `[run][slice]`.
    pub slice_ns: Vec<Vec<u64>>,
    /// Simulated cycles per slice.
    pub slice_cycles: Vec<u64>,
    /// Extra runs the noise rule triggered.
    pub extra_runs: usize,
    /// Output checks, per run and across runs.
    pub checks: Vec<Check>,
}

/// The result file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultFile {
    /// Schema version.
    pub schema: u32,
    /// Host header.
    pub host: HostHeader,
    /// Traffic seed.
    pub seed: u64,
    /// Untraced runs per workload asked for.
    pub runs: usize,
    /// Whether traced and side runs were made.
    pub traced: bool,
    /// How the counts were chosen (`default`, `smoke`, `seconds=N`).
    pub sizing: String,
    /// One entry per workload, in matrix order.
    pub workloads: Vec<WorkloadResult>,
}

impl ResultFile {
    /// Every check of every workload that did not hold.
    pub fn violations(&self) -> Vec<(&str, &Check)> {
        self.workloads
            .iter()
            .flat_map(|w| {
                w.checks
                    .iter()
                    .filter(|c| !c.ok)
                    .map(move |c| (w.name.as_str(), c))
            })
            .collect()
    }
}

/// FNV-1a over the fingerprint words, as 16 hex digits.
pub fn hash_words(words: &[u64]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_file() -> ResultFile {
        let metric = |v: f64, u: &str| Metric {
            value: v,
            unit: u.to_string(),
        };
        ResultFile {
            schema: SCHEMA,
            host: HostHeader {
                nproc: 2,
                cpu_model: "test cpu".into(),
                rustc: "rustc 1.0".into(),
                git_rev: "abc-dirty".into(),
            },
            seed: 1,
            runs: 5,
            traced: true,
            sizing: "smoke".into(),
            workloads: vec![WorkloadResult {
                name: "w".into(),
                size: Size {
                    warmup: 10,
                    measured: 100,
                    slice: 2,
                },
                end_to_end: [("host_ns_per_cycle".to_string(), metric(1234.5678, "ns"))].into(),
                per_layer: [("core.tick_ns_per_cycle".to_string(), metric(0.25, "ns"))].into(),
                latency_samples: 1000,
                latency_tail: (0.99, 77),
                sim_fingerprint: hash_words(&[1, 2, 3]),
                net_fingerprint: hash_words(&[1, 2]),
                attempted: 100,
                failed: 0,
                run_totals_s: vec![0.5, 0.6],
                slice_ns: vec![vec![1, 2], vec![3, 4]],
                slice_cycles: vec![10, 10],
                extra_runs: 1,
                checks: vec![Check::new("conservation", false, "1 != 2".into())],
            }],
        }
    }

    #[test]
    fn result_file_round_trips() {
        let file = sample_file();
        let text = serde_json::to_string_pretty(&file).unwrap();
        let back: ResultFile = serde_json::from_str(&text).unwrap();
        assert_eq!(back, file);
        assert_eq!(back.violations().len(), 1);
        assert_eq!(back.workloads[0].size.slices(), 50);
    }

    #[test]
    fn fingerprint_hash_is_order_sensitive() {
        assert_ne!(hash_words(&[1, 2]), hash_words(&[2, 1]));
        assert_eq!(hash_words(&[]), "cbf29ce484222325");
    }
}
