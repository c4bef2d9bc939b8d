//! SPEC-like benchmark profiles and the analytic performance model that
//! converts measured NoC/memory latency into normalized scores
//! (paper Figures 12, 13 and Table 6).
//!
//! The paper uses SPECint as a *consumer* of memory latency: these
//! benchmarks "rely on pointer-based data structures and require plenty
//! of off-chip memory access" (§3.1.1). We model each benchmark by its
//! L3-miss intensity (MPKI), its CPI with perfect memory, and its
//! memory-level parallelism, then let measured latency set the score.
//! MPKI/CPI values are representative figures from the public
//! characterization literature — the *relative* sensitivity between
//! benchmarks is what matters for reproducing the figures' shape.

use serde::{Deserialize, Serialize};

/// Which suite a profile belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SpecSuite {
    /// SPECint-2006.
    Int2006,
    /// SPECint-2017 (rate).
    Int2017,
    /// SPECpower-ssj-2008.
    Power2008,
}

/// An analytic profile of one benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpecProfile {
    /// Benchmark name.
    pub name: &'static str,
    /// Owning suite.
    pub suite: SpecSuite,
    /// L3 misses per kilo-instruction (drives NoC+DRAM traffic).
    pub mpki_l3: f64,
    /// Cycles per instruction with a perfect memory system.
    pub base_cpi: f64,
    /// Memory-level parallelism: average overlapped misses.
    pub mlp: f64,
}

impl SpecProfile {
    /// Effective CPI when the average post-L2 memory latency is
    /// `mem_latency` cycles.
    pub fn cpi(&self, mem_latency: f64) -> f64 {
        self.base_cpi + self.mpki_l3 / 1000.0 * mem_latency / self.mlp
    }

    /// Instructions per cycle under the same latency.
    pub fn ipc(&self, mem_latency: f64) -> f64 {
        1.0 / self.cpi(mem_latency)
    }

    /// Single-core score at `freq_ghz` with the given latency — an
    /// arbitrary-unit rate proportional to instructions/second.
    pub fn score(&self, mem_latency: f64, freq_ghz: f64) -> f64 {
        self.ipc(mem_latency) * freq_ghz
    }
}

/// The SPECint-2017 (intrate) profiles.
pub fn specint2017() -> Vec<SpecProfile> {
    let p = |name, mpki_l3, base_cpi, mlp| SpecProfile {
        name,
        suite: SpecSuite::Int2017,
        mpki_l3,
        base_cpi,
        mlp,
    };
    vec![
        p("perlbench", 0.8, 0.55, 1.6),
        p("gcc", 2.6, 0.65, 1.8),
        p("mcf", 18.0, 0.80, 2.4),
        p("omnetpp", 9.5, 0.75, 1.7),
        p("xalancbmk", 4.2, 0.70, 1.9),
        p("x264", 0.9, 0.45, 2.2),
        p("deepsjeng", 1.1, 0.60, 1.5),
        p("leela", 0.5, 0.60, 1.4),
        p("exchange2", 0.1, 0.50, 1.2),
        p("xz", 3.8, 0.70, 2.0),
    ]
}

/// The SPECint-2006 profiles.
pub fn specint2006() -> Vec<SpecProfile> {
    let p = |name, mpki_l3, base_cpi, mlp| SpecProfile {
        name,
        suite: SpecSuite::Int2006,
        mpki_l3,
        base_cpi,
        mlp,
    };
    vec![
        p("perlbench", 0.7, 0.55, 1.5),
        p("bzip2", 2.2, 0.60, 1.8),
        p("gcc", 3.0, 0.65, 1.8),
        p("mcf", 32.0, 0.85, 2.6),
        p("gobmk", 0.6, 0.65, 1.4),
        p("hmmer", 0.3, 0.45, 1.6),
        p("sjeng", 0.5, 0.60, 1.4),
        p("libquantum", 24.0, 0.50, 3.2),
        p("h264ref", 0.8, 0.50, 1.9),
        p("omnetpp", 12.0, 0.75, 1.7),
        p("astar", 5.0, 0.70, 1.6),
        p("xalancbmk", 6.0, 0.70, 1.9),
    ]
}

/// Geometric mean of per-benchmark score ratios — how SPEC aggregates.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn geomean_ratio(ours: &[f64], baseline: &[f64]) -> f64 {
    assert_eq!(ours.len(), baseline.len());
    assert!(!ours.is_empty());
    let log_sum: f64 = ours.iter().zip(baseline).map(|(a, b)| (a / b).ln()).sum();
    (log_sum / ours.len() as f64).exp()
}

/// SPECpower-ssj model: throughput/watt across the standard load
/// ladder. `throughput` is the max ssj_ops equivalent; power scales
/// between `idle_w` and `peak_w` with utilization.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Peak throughput (operations per second, arbitrary units).
    pub peak_ops: f64,
    /// Idle power in watts.
    pub idle_w: f64,
    /// Full-load power in watts.
    pub peak_w: f64,
}

impl PowerModel {
    /// The SPECpower overall score: sum of ssj_ops at the 100%..10% load
    /// levels divided by the sum of average power at each level.
    pub fn score(&self) -> f64 {
        let mut ops = 0.0;
        let mut watts = 0.0;
        for step in (1..=10).rev() {
            let u = step as f64 / 10.0;
            ops += self.peak_ops * u;
            watts += self.idle_w + (self.peak_w - self.idle_w) * u;
        }
        // Active-idle measurement contributes power only.
        watts += self.idle_w;
        ops / watts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_hurts_memory_bound_benchmarks_more() {
        let suite = specint2006();
        let mcf = suite.iter().find(|p| p.name == "mcf").unwrap();
        let hmmer = suite.iter().find(|p| p.name == "hmmer").unwrap();
        let mcf_drop = mcf.score(300.0, 3.0) / mcf.score(100.0, 3.0);
        let hmmer_drop = hmmer.score(300.0, 3.0) / hmmer.score(100.0, 3.0);
        assert!(
            mcf_drop < hmmer_drop,
            "mcf must be the latency-sensitive one"
        );
    }

    #[test]
    fn suites_have_expected_members() {
        assert_eq!(specint2017().len(), 10);
        assert_eq!(specint2006().len(), 12);
        assert!(specint2017().iter().all(|p| p.suite == SpecSuite::Int2017));
    }

    #[test]
    fn score_monotone_in_latency() {
        for p in specint2017() {
            assert!(p.score(100.0, 3.0) > p.score(200.0, 3.0), "{}", p.name);
        }
    }

    #[test]
    fn geomean_of_equal_sets_is_one() {
        let a = [1.0, 2.0, 4.0];
        assert!((geomean_ratio(&a, &a) - 1.0).abs() < 1e-12);
        let b = [2.0, 4.0, 8.0];
        assert!((geomean_ratio(&b, &a) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn power_score_prefers_efficiency() {
        let ours = PowerModel {
            peak_ops: 1000.0,
            idle_w: 50.0,
            peak_w: 200.0,
        };
        let hungrier = PowerModel {
            peak_ops: 1000.0,
            idle_w: 80.0,
            peak_w: 260.0,
        };
        assert!(ours.score() > hungrier.score());
    }
}
