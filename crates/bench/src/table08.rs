//! Table 8: MLPerf training performance and energy efficiency vs an
//! A100-class accelerator.
//!
//! Methodology: two-level roofline per layer — compute peak, on-chip
//! (L2/NoC) bandwidth, and HBM bandwidth with a data-reuse factor. The
//! AI processor's on-chip bandwidth is not assumed: it is the *measured*
//! Table 7 NoC bandwidth from the cycle-accurate simulation.

use crate::report::{fnum, ExperimentResult, Scale};
use crate::table07;
use noc_workloads::{bert_large, mask_rcnn, resnet50, NnModel};

/// A two-level roofline machine.
#[derive(Debug, Clone)]
pub struct Accel {
    /// Label.
    pub name: String,
    /// Peak FP16 TFLOP/s.
    pub peak_tflops: f64,
    /// On-chip (L2/NoC) bandwidth, TB/s.
    pub onchip_tbs: f64,
    /// Off-chip HBM bandwidth, TB/s.
    pub hbm_tbs: f64,
    /// Board power in watts.
    pub power_w: f64,
}

impl Accel {
    /// Step time for a model: Σ per-layer max(compute, on-chip, HBM)
    /// with `reuse`× on-chip data reuse before spilling to HBM.
    pub fn step_time_s(&self, model: &NnModel, reuse: f64) -> f64 {
        model
            .layers
            .iter()
            .map(|l| {
                let compute = l.gflops / (self.peak_tflops * 1000.0);
                let onchip = l.total_gb() / (self.onchip_tbs * 1000.0);
                let hbm = (l.total_gb() / reuse) / (self.hbm_tbs * 1000.0);
                compute.max(onchip).max(hbm)
            })
            .sum()
    }
}

/// Reproduce Table 8.
pub fn run(scale: Scale) -> ExperimentResult {
    // Measured on-chip bandwidth from the Table 7 simulation (1:1 mix).
    let measured = table07::run_ratio(1, 1, scale);
    let ours = Accel {
        name: "this-work".into(),
        peak_tflops: 1048.0, // 64 cores × 16^3 MACs × 2 × 2 GHz
        onchip_tbs: measured.total_tbs(),
        hbm_tbs: 3.0, // 6 × 500 GB/s (§3.2.2)
        power_w: 650.0,
    };
    let a100 = Accel {
        name: "a100-like".into(),
        peak_tflops: 312.0,
        onchip_tbs: 7.0, // A100 L2 bandwidth class
        hbm_tbs: 2.0,
        power_w: 400.0,
    };
    let reuse = 4.0;

    let mut r = ExperimentResult::new(
        "table08",
        "MLPerf training: performance and energy efficiency vs A100-class",
    )
    .with_header(vec![
        "model",
        "ours steps/s",
        "a100 steps/s",
        "perf ratio (paper)",
        "energy-eff ratio (paper)",
    ]);
    let cases: Vec<(NnModel, f64, f64)> = vec![
        (resnet50(256), 3.2, 1.89),
        (bert_large(32, 512), 2.99, 1.50),
        (mask_rcnn(32), 4.13, f64::NAN),
    ];
    let mut ratios = Vec::new();
    for (model, paper_perf, paper_energy) in &cases {
        let t_ours = ours.step_time_s(model, reuse);
        let t_a100 = a100.step_time_s(model, reuse);
        let perf = t_a100 / t_ours;
        let energy = perf * a100.power_w / ours.power_w;
        ratios.push(perf);
        r.push_row(vec![
            model.name.clone(),
            fnum(1.0 / t_ours, 1),
            fnum(1.0 / t_a100, 1),
            format!("{:.2}x ({paper_perf}x)", perf),
            if paper_energy.is_nan() {
                format!("{:.2}x (NA)", energy)
            } else {
                format!("{:.2}x ({paper_energy}x)", energy)
            },
        ]);
    }
    let ok = ratios.iter().all(|&x| (2.0..6.0).contains(&x));
    r.note(format!(
        "shape check: 2-6x speedup over A100-class on all three workloads (paper: 2.99-4.13x) — {}",
        if ok { "PASS" } else { "FAIL" }
    ));
    r.note(format!(
        "on-chip bandwidth used: measured {:.1} TB/s from the Table 7 simulation (not assumed)",
        measured.total_tbs()
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accel_step_time_monotone_in_peak() {
        let m = resnet50(64);
        let slow = Accel {
            name: "s".into(),
            peak_tflops: 100.0,
            onchip_tbs: 10.0,
            hbm_tbs: 2.0,
            power_w: 1.0,
        };
        let fast = Accel {
            peak_tflops: 400.0,
            ..slow.clone()
        };
        assert!(fast.step_time_s(&m, 4.0) < slow.step_time_s(&m, 4.0));
    }
}
