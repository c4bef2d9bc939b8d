//! Table 6: SPECpower-ssj-2008 — power/performance characteristics.
//!
//! Throughput comes from the measured latency profiles (as in
//! Figures 12/13). Power is a parametric model where the only
//! *differentiating* term is the NoC: the bufferless multi-ring's cross
//! stations carry no VC buffers or allocators, which the paper's §3.4.2
//! credits with "reduce both circuit complexity and energy consumption".
//! Router-class power constants follow the bufferless-router literature
//! (Moscibroda & Mutlu, ISCA'09: buffered router ≈ 2-4x bufferless).

use crate::fig12_13::{all_profiles, ssj_profile};
use crate::report::{fnum, ExperimentResult, Scale};
use noc_workloads::PowerModel;

const FREQ_GHZ: f64 = 3.0;
/// Watts per CPU core at full load (identical across systems — the
/// comparison isolates the NoC).
const CORE_W: f64 = 2.2;
/// Uncore/IO base watts (identical).
const BASE_W: f64 = 45.0;
/// One bufferless cross station (this work).
const STATION_W: f64 = 0.06;
/// One buffered 5-port VC mesh router (intel-like).
const ROUTER_W: f64 = 0.24;
/// Hub-and-spoke: per-chiplet link PHY + share of the central switch.
const HUB_LINK_W: f64 = 0.9;

/// Reproduce Table 6.
pub fn run(scale: Scale) -> ExperimentResult {
    let profiles = all_profiles(scale);
    let ssj = ssj_profile();
    // Profile order: ours-96, intel-28, amd-64, ours-28, ours-64.
    let ours = &profiles[0];
    let intel = &profiles[1];
    let amd = &profiles[2];

    let noc_w = |name: &str, cores: usize| -> f64 {
        match name {
            "ours" => {
                // 2 compute dies × ~14 stations × 2 lanes + IO dies.
                let stations = (cores / 4 + 16) as f64;
                stations * STATION_W * 2.0
            }
            "intel" => (cores as f64 + 21.0) * ROUTER_W, // 7x7 mesh routers
            _ => 10.0 * HUB_LINK_W,                      // 10 chiplet links + switch
        }
    };

    let model = |p: &crate::fig12_13::LatencyProfile, kind: &str| -> (PowerModel, PowerModel) {
        let single_ops = ssj.score(p.unloaded(), FREQ_GHZ) * 1000.0;
        let pkg_ops = ssj.score(p.package_latency(&ssj), FREQ_GHZ) * p.cores as f64 * 1000.0;
        let pkg_peak_w = BASE_W + CORE_W * p.cores as f64 + noc_w(kind, p.cores);
        let pkg_idle_w = 0.35 * pkg_peak_w;
        let single_peak_w = BASE_W / 4.0 + CORE_W + noc_w(kind, p.cores) / p.cores as f64;
        (
            PowerModel {
                peak_ops: single_ops,
                idle_w: 0.35 * single_peak_w,
                peak_w: single_peak_w,
            },
            PowerModel {
                peak_ops: pkg_ops,
                idle_w: pkg_idle_w,
                peak_w: pkg_peak_w,
            },
        )
    };

    let (o1, op) = model(ours, "ours");
    let (i1, ip) = model(intel, "intel");
    let (a1, ap) = model(amd, "amd");

    let mut r = ExperimentResult::new(
        "table06",
        "SPECpower-ssj-2008 score comparison (ops/watt ladder, normalized core count)",
    )
    .with_header(vec!["platform", "1-core score", "1-package score (ops/W)"]);
    for (name, s1, sp) in [
        ("this work", &o1, &op),
        ("intel-like", &i1, &ip),
        ("amd-like", &a1, &ap),
    ] {
        r.push_row(vec![
            name.to_string(),
            fnum(s1.score(), 1),
            fnum(sp.score(), 1),
        ]);
    }
    let r1i = o1.score() / i1.score();
    let r1a = o1.score() / a1.score();
    let rpi = op.score() / ip.score();
    let rpa = op.score() / ap.score();
    r.note(format!(
        "single-core: {r1i:.2}x intel-like (paper 1.08x), {r1a:.2}x amd-like (paper 1.03x) — {}",
        if r1i > 1.0 && r1a > 1.0 {
            "PASS"
        } else {
            "FAIL"
        }
    ));
    r.note(format!(
        "package (ops/W): {rpi:.2}x intel-like (paper 1.19x), {rpa:.2}x amd-like (paper 1.11x) — {}",
        if rpi > 1.0 && rpa > 1.0 { "PASS" } else { "FAIL" }
    ));
    r
}
