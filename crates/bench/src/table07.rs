//! Table 7: AI-NoC bandwidth at the paper's read/write ratios.

use crate::report::{fnum, ExperimentResult, Scale};
use noc_ai::{AiConfig, AiEngine, AiProcessor, AiTraffic};

/// The paper's ratio rows, in order.
pub const RATIOS: [(u32, u32); 6] = [(1, 1), (2, 1), (4, 1), (3, 2), (1, 0), (0, 1)];

/// Run one ratio and return the report.
pub fn run_ratio(read: u32, write: u32, scale: Scale) -> noc_ai::AiBandwidthReport {
    let proc = AiProcessor::build(AiConfig::default()).expect("default AI config builds");
    let mut engine = AiEngine::new(proc, AiTraffic::from_ratio(read, write));
    engine
        .run(scale.pick(1_000, 3_000), scale.pick(3_000, 10_000))
        .expect("AI engine run")
}

/// Reproduce Table 7.
pub fn run(scale: Scale) -> ExperimentResult {
    let mut r = ExperimentResult::new("table07", "AI-NoC bandwidth test (TB/s)").with_header(vec![
        "R-W ratio",
        "Total",
        "Read",
        "Write",
        "DMA",
    ]);
    let mut totals = Vec::new();
    for &(read, write) in &RATIOS {
        let rep = run_ratio(read, write, scale);
        r.push_row(vec![
            format!("{read}:{write}"),
            fnum(rep.total_tbs(), 1),
            fnum(rep.read_tbs(), 1),
            fnum(rep.write_tbs(), 1),
            fnum(rep.dma_tbs(), 1),
        ]);
        totals.push(rep.total_tbs());
    }
    let balanced = totals[0];
    let pure_read = totals[4];
    let pure_write = totals[5];
    r.note(format!(
        "shape check: balanced 1:1 ({balanced:.1}) beats pure read ({pure_read:.1}) and pure write ({pure_write:.1}) — {}",
        if balanced > pure_read && balanced > pure_write { "PASS" } else { "FAIL" }
    ));
    r.note(format!(
        "headline check: peak total ≥ 14 TB/s (paper: 16.0; full scale measures ≈15) — {}",
        if balanced >= 14.0 { "PASS" } else { "FAIL" }
    ));
    r.note(format!(
        "typical-ratio check: every row ≥ 9 TB/s (paper: 'more than 10TB/s') — {}",
        if totals.iter().all(|&t| t >= 9.0) {
            "PASS"
        } else {
            "FAIL"
        }
    ));
    r.note(
        "paper row 1:1 = 16.0/7.3/7.1/1.6; 1:0 = 11.2/9.5/0/1.7; 0:1 = 10.0/0/8.4/1.6".to_string(),
    );
    r
}

/// Companion experiment: derive the read/write mixes from the Table 3
/// neural networks (§5.4: "according to the various memory access
/// behavior of diversified neural network layers, we build several
/// traffic-flows") and measure each model's achievable NoC bandwidth.
pub fn run_model_driven(scale: Scale) -> ExperimentResult {
    use noc_ai::{AiEngine, AiTraffic};
    let mut r = ExperimentResult::new(
        "table03_traffic",
        "NoC bandwidth under Table 3 model-derived read/write mixes",
    )
    .with_header(vec![
        "model",
        "read fraction",
        "total TB/s",
        "read TB/s",
        "write TB/s",
    ]);
    let mut totals = Vec::new();
    for model in noc_workloads::table3_models() {
        let rf = model.read_frac();
        let proc = noc_ai::AiProcessor::build(noc_ai::AiConfig::default()).expect("builds");
        let mut e = AiEngine::new(
            proc,
            AiTraffic {
                read_frac: rf,
                ..AiTraffic::from_ratio(1, 1)
            },
        );
        let rep = e
            .run(scale.pick(1_000, 3_000), scale.pick(3_000, 8_000))
            .expect("AI engine run");
        totals.push(rep.total_tbs());
        r.push_row(vec![
            model.name.clone(),
            fnum(rf, 2),
            fnum(rep.total_tbs(), 1),
            fnum(rep.read_tbs(), 1),
            fnum(rep.write_tbs(), 1),
        ]);
    }
    let ok = totals.iter().all(|&t| t >= 9.0);
    r.note(format!(
        "every Table 3 model's traffic mix sustains ≥9 TB/s on the NoC (paper: 'more \
         than 10TB/s' for typical ratios) — {}",
        if ok { "PASS" } else { "FAIL" }
    ));
    r
}
