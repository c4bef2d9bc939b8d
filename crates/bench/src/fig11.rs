//! Figure 11: DDR latency under increasing background noise — the
//! turning point of this work comes later than the baseline's.

use crate::report::{fnum, ExperimentResult, Scale};
use crate::systems::{self, Partition};
use noc_chi::system::ChiTransport;
use noc_server_cpu::experiments::{latency_vs_noise, turning_point_abs, LatencyPoint};

/// The background traffic mixes of the paper's experiment.
pub const MIXES: [(&str, f64); 3] = [("read", 1.0), ("write", 0.0), ("hybrid", 0.5)];

fn sweep<T: ChiTransport>(
    system: impl Fn() -> (T, Partition),
    rates: &[f64],
    read_frac: f64,
    scale: Scale,
) -> Vec<LatencyPoint> {
    latency_vs_noise(
        || systems::probe_and_noise(system()),
        rates,
        read_frac,
        scale.pick(300, 1_500),
        scale.pick(2_500, 8_000),
    )
}

/// Reproduce Figure 11.
pub fn run(scale: Scale) -> ExperimentResult {
    let rates: Vec<f64> = match scale {
        Scale::Quick => vec![0.0, 0.05, 0.1, 0.2, 0.4],
        Scale::Full => vec![0.0, 0.025, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.6, 0.8],
    };
    let mut r = ExperimentResult::new(
        "fig11",
        "Probe-core DDR latency vs background noise rate (cycles)",
    )
    .with_header(vec![
        "mix",
        "noise rate",
        "this work",
        "p50",
        "p95",
        "p99",
        "intel-like",
        "i p99",
    ]);

    let mut all_pass = true;
    for &(mix, rf) in &MIXES {
        let ours = sweep(|| systems::ours(12), &rates, rf, scale);
        let intel = sweep(systems::intel_like, &rates, rf, scale);
        for (o, i) in ours.iter().zip(&intel) {
            r.push_row(vec![
                mix.to_string(),
                fnum(o.noise_rate, 3),
                fnum(o.probe_latency, 0),
                o.p50.to_string(),
                o.p95.to_string(),
                o.p99.to_string(),
                fnum(i.probe_latency, 0),
                i.p99.to_string(),
            ]);
        }
        // Common absolute threshold: the figure's y-axis is absolute
        // latency, so both systems are judged against the same cliff.
        let threshold = 1.5 * ours[0].probe_latency.min(intel[0].probe_latency);
        let tp_ours = turning_point_abs(&ours, threshold);
        let tp_intel = turning_point_abs(&intel, threshold);
        let later = match (tp_ours, tp_intel) {
            (None, Some(_)) => true, // ours never crosses in range
            (Some(a), Some(b)) => a >= b,
            (None, None) => {
                ours.last().expect("points").probe_latency
                    <= intel.last().expect("points").probe_latency
            }
            (Some(_), None) => false,
        };
        all_pass &= later;
        r.note(format!(
            "{mix}: first rate above {threshold:.0} cycles: ours={:?} intel-like={:?} — {}",
            tp_ours,
            tp_intel,
            if later {
                "PASS (ours turns later)"
            } else {
                "FAIL"
            }
        ));
    }
    r.note(format!(
        "overall: this work's latency cliff comes later under read, write and hybrid noise — {}",
        if all_pass { "PASS" } else { "PARTIAL" }
    ));
    r
}
