//! Figures 12 & 13: SPECint-2017/2006 scores, normalized against the
//! baselines.
//!
//! Methodology (the substitution documented in DESIGN.md): SPECint
//! binaries are replaced by analytic per-benchmark profiles (MPKI,
//! base CPI, MLP). Single-core scores use each system's *measured*
//! unloaded memory latency. Package scores solve the closed-loop fixed
//! point between per-core demand and the system's *measured*
//! latency-vs-load curve, then multiply by core count.

use crate::report::{fnum, ExperimentResult, Scale};
use crate::systems;
use crate::systems::Partition;
use noc_chi::system::ChiTransport;
use noc_server_cpu::experiments::{latency_vs_noise, LatencyPoint};
use noc_workloads::{geomean_ratio, specint2006, specint2017, SpecProfile};

/// Measured latency profile of a system: unloaded latency plus a
/// latency-vs-rate curve (rate = requests/cycle per requester).
#[derive(Debug, Clone)]
pub struct LatencyProfile {
    /// System label.
    pub name: String,
    /// Latency-vs-noise points, ascending rate (index 0 = unloaded).
    pub curve: Vec<LatencyPoint>,
    /// Physical cores in the package.
    pub cores: usize,
    /// Cores represented by one harness requester.
    pub cores_per_requester: usize,
}

impl LatencyProfile {
    /// Unloaded memory round-trip latency.
    pub fn unloaded(&self) -> f64 {
        self.curve.first().expect("non-empty curve").probe_latency
    }

    /// Interpolate latency at a per-requester rate (clamped to curve).
    pub fn latency_at(&self, rate: f64) -> f64 {
        let pts = &self.curve;
        if rate <= pts[0].noise_rate {
            return pts[0].probe_latency;
        }
        for w in pts.windows(2) {
            if rate <= w[1].noise_rate {
                let span = w[1].noise_rate - w[0].noise_rate;
                let frac = if span > 0.0 {
                    (rate - w[0].noise_rate) / span
                } else {
                    0.0
                };
                return w[0].probe_latency + frac * (w[1].probe_latency - w[0].probe_latency);
            }
        }
        pts.last().expect("non-empty").probe_latency
    }

    /// Package-level fixed point for one benchmark: cores drive load,
    /// load drives latency, latency drives IPC. The measured curve's
    /// x-axis is a closed-loop duty ratio, so a demand of `r`
    /// requests/cycle at round-trip `lat` maps to duty `r × lat`.
    pub fn package_latency(&self, p: &SpecProfile) -> f64 {
        let mut lat = self.unloaded();
        for _ in 0..25 {
            let per_core = p.ipc(lat) * p.mpki_l3 / 1000.0;
            let demand = per_core * self.cores_per_requester as f64;
            let duty = (demand * lat).min(1.0);
            let next = self.latency_at(duty);
            lat = 0.5 * lat + 0.5 * next;
        }
        lat
    }
}

/// Measure the latency profile of the system `factory` builds, its
/// first requester probing under noise from the rest.
pub fn profile<T: ChiTransport>(
    name: &str,
    factory: impl Fn() -> (T, Partition),
    cores: usize,
    cpr: usize,
    scale: Scale,
) -> LatencyProfile {
    let rates: Vec<f64> = match scale {
        Scale::Quick => vec![0.0, 0.05, 0.15, 0.4],
        Scale::Full => vec![0.0, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.8],
    };
    let curve = latency_vs_noise(
        || systems::probe_and_noise(factory()),
        &rates,
        0.67,
        scale.pick(300, 1_500),
        scale.pick(2_000, 8_000),
    );
    LatencyProfile {
        name: name.to_string(),
        curve,
        cores,
        cores_per_requester: cpr,
    }
}

/// Latency profiles of all compared systems.
pub fn all_profiles(scale: Scale) -> Vec<LatencyProfile> {
    vec![
        profile("this-work-96c", || systems::ours(12), 96, 4, scale),
        profile("intel-like-28c", systems::intel_like, 28, 1, scale),
        profile("amd-like-64c", systems::amd_like, 64, 1, scale),
        // Scaled-down variants of this work for fair core-count matches:
        // 2 dies × 4 clusters × 4 cores = 32 ≈ 28.
        profile("this-work-28c", || systems::ours(4), 32, 4, scale),
        profile("this-work-64c", || systems::ours(8), 64, 4, scale),
    ]
}

const FREQ_GHZ: f64 = 3.0;

fn suite_scores(
    suite: &[SpecProfile],
    profiles: &[LatencyProfile],
) -> Vec<(String, Vec<f64>, Vec<f64>)> {
    suite
        .iter()
        .map(|p| {
            let single: Vec<f64> = profiles
                .iter()
                .map(|m| p.score(m.unloaded(), FREQ_GHZ))
                .collect();
            let pkg: Vec<f64> = profiles
                .iter()
                .map(|m| p.score(m.package_latency(p), FREQ_GHZ) * m.cores as f64)
                .collect();
            (p.name.to_string(), single, pkg)
        })
        .collect()
}

fn build_result(
    id: &str,
    title: &str,
    suite: &[SpecProfile],
    profiles: &[LatencyProfile],
) -> ExperimentResult {
    let mut r = ExperimentResult::new(id, title).with_header(vec![
        "benchmark",
        "1c ours/intel",
        "1c ours/amd",
        "pkg ours/intel",
        "pkg ours/amd",
        "pkg-scaled28 ours/intel",
        "pkg-scaled64 ours/amd",
    ]);
    // Profile order: ours-96, intel-28, amd-64, ours-28, ours-64.
    let scores = suite_scores(suite, profiles);
    type Score = (String, Vec<f64>, Vec<f64>);
    let col = |v: &[Score], f: &dyn Fn(&Score) -> f64| v.iter().map(f).collect::<Vec<f64>>();
    for (name, single, pkg) in &scores {
        r.push_row(vec![
            name.clone(),
            fnum(single[0] / single[1], 2),
            fnum(single[0] / single[2], 2),
            fnum(pkg[0] / pkg[1], 2),
            fnum(pkg[0] / pkg[2], 2),
            fnum(pkg[3] / pkg[1], 2),
            fnum(pkg[4] / pkg[2], 2),
        ]);
    }
    let ones = vec![1.0; scores.len()];
    let g1i = geomean_ratio(&col(&scores, &|s| s.1[0] / s.1[1]), &ones);
    let g1a = geomean_ratio(&col(&scores, &|s| s.1[0] / s.1[2]), &ones);
    let gpi = geomean_ratio(&col(&scores, &|s| s.2[0] / s.2[1]), &ones);
    let gpa = geomean_ratio(&col(&scores, &|s| s.2[0] / s.2[2]), &ones);
    let gsi = geomean_ratio(&col(&scores, &|s| s.2[3] / s.2[1]), &ones);
    let gsa = geomean_ratio(&col(&scores, &|s| s.2[4] / s.2[2]), &ones);
    r.note(format!(
        "geomean single-core: {g1i:.2}x intel-like, {g1a:.2}x amd-like — {}",
        if g1i > 1.0 && g1a > 1.0 {
            "PASS"
        } else {
            "FAIL"
        }
    ));
    r.note(format!(
        "geomean package: {gpi:.2}x intel-like (96c vs 28c), {gpa:.2}x amd-like (96c vs 64c) — {}",
        if gpi > 1.0 && gpa > 1.0 {
            "PASS"
        } else {
            "FAIL"
        }
    ));
    r.note(format!(
        "geomean scaled-to-same-cores: {gsi:.2}x intel-like (32c vs 28c), {gsa:.2}x amd-like (64c vs 64c) — {}",
        if gsi > 1.0 && gsa > 1.0 {
            "PASS (advantage persists at equal core counts)"
        } else {
            "FAIL"
        }
    ));
    // Tail latencies behind the scores: the mean the model consumes
    // hides congestion the percentiles expose.
    for m in profiles {
        let p = m.curve.first().expect("non-empty curve");
        let q = m.curve.last().expect("non-empty curve");
        r.note(format!(
            "{}: unloaded mean {:.0} (p50 {} / p99 {}), max-rate mean {:.0} (p50 {} / p99 {})",
            m.name, p.probe_latency, p.p50, p.p99, q.probe_latency, q.p50, q.p99
        ));
    }
    r
}

/// Reproduce Figure 12 (SPECint-2017).
pub fn run_2017(scale: Scale) -> ExperimentResult {
    let profiles = all_profiles(scale);
    build_result(
        "fig12",
        "SPECint-2017 normalized scores (analytic model on measured latencies)",
        &specint2017(),
        &profiles,
    )
}

/// Reproduce Figure 13 (SPECint-2006).
pub fn run_2006(scale: Scale) -> ExperimentResult {
    let profiles = all_profiles(scale);
    build_result(
        "fig13",
        "SPECint-2006 normalized scores (analytic model on measured latencies)",
        &specint2006(),
        &profiles,
    )
}

/// Shared helper for Table 6: the ssj-like throughput profile.
pub fn ssj_profile() -> SpecProfile {
    SpecProfile {
        name: "ssj-ops",
        suite: noc_workloads::SpecSuite::Power2008,
        mpki_l3: 2.5,
        base_cpi: 0.7,
        mlp: 1.8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(noise_rate: f64, probe_latency: f64) -> LatencyPoint {
        LatencyPoint {
            noise_rate,
            probe_latency,
            p50: probe_latency as u64,
            p95: probe_latency as u64,
            p99: probe_latency as u64,
            max: probe_latency as u64,
        }
    }

    #[test]
    fn latency_profile_interpolates() {
        let lp = LatencyProfile {
            name: "x".into(),
            curve: vec![pt(0.0, 100.0), pt(0.5, 200.0)],
            cores: 4,
            cores_per_requester: 1,
        };
        assert_eq!(lp.unloaded(), 100.0);
        assert!((lp.latency_at(0.25) - 150.0).abs() < 1e-9);
        assert_eq!(lp.latency_at(2.0), 200.0);
    }

    #[test]
    fn package_fixed_point_converges() {
        let lp = LatencyProfile {
            name: "x".into(),
            curve: vec![pt(0.0, 100.0), pt(1.0, 400.0)],
            cores: 64,
            cores_per_requester: 1,
        };
        let p = &specint2006()[3]; // mcf: memory bound
        let lat = lp.package_latency(p);
        assert!(lat > 100.0 && lat < 400.0, "lat {lat}");
    }

    #[test]
    #[ignore = "multi-minute at full scale; run via repro binary"]
    fn fig12_full() {
        let r = run_2017(Scale::Full);
        assert!(r.notes.iter().filter(|n| n.ends_with("FAIL")).count() == 0);
    }
}
