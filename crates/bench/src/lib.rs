//! # noc-experiments — the evaluation harness
//!
//! One module per table/figure of the paper's §5 (plus the design-choice
//! ablations). Every module exposes `run(scale) -> ExperimentResult`;
//! the `repro` binary executes them all and prints paper-style tables
//! with explicit shape checks (PASS/FAIL) against the published numbers.
//!
//! | module | reproduces |
//! |---|---|
//! | [`fig03`] | Figure 3 — roofline / arithmetic intensity |
//! | [`table04`] | Table 4 + Figure 6 — wire fabrics & floorplan |
//! | [`fig10`] | Figure 10 — LMBench bandwidth vs baselines |
//! | [`table05`] | Table 5 — intra/inter-chiplet coherence latency |
//! | [`fig11`] | Figure 11 — DDR latency under background noise |
//! | [`fig12_13`] | Figures 12/13 — SPECint-2017/2006 |
//! | [`table06`] | Table 6 — SPECpower-ssj-2008 |
//! | [`table07`] | Table 7 — AI-NoC bandwidth per R/W ratio |
//! | [`fig14`] | Figure 14 — bandwidth equilibrium across AI cores |
//! | [`table08`] | Table 8 — MLPerf training vs A100-class |
//! | [`table09`] | Table 9 — commercial NoC survey |
//! | [`ablations`] | Figure 9 SWAP + §3.4 design-choice ablations |
//!
//! [`systems`] holds the Server-CPU systems the experiments share, and
//! [`report`] the result type. Nothing here times the simulator:
//! wall-clock numbers come from `noc-benchmark` (`benchmark/`).

#![forbid(unsafe_code)]

pub mod ablations;
pub mod fig03;
pub mod fig10;
pub mod fig11;
pub mod fig12_13;
pub mod fig14;
pub mod report;
pub mod systems;
pub mod table04;
pub mod table05;
pub mod table06;
pub mod table07;
pub mod table08;
pub mod table09;

pub use report::{ExperimentResult, Scale};

/// An experiment entry: id plus runner function.
pub type Experiment = (&'static str, fn(Scale) -> ExperimentResult);

/// Every experiment, in paper order: `(id, runner)`.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        ("fig03", fig03::run),
        ("table04", table04::run),
        ("fig10", fig10::run),
        ("table05", table05::run),
        ("fig11", fig11::run),
        ("fig12", fig12_13::run_2017),
        ("fig13", fig12_13::run_2006),
        ("table06", table06::run),
        ("table07", table07::run),
        ("table03_traffic", table07::run_model_driven),
        ("fig14", fig14::run),
        ("table08", table08::run),
        ("table09", table09::run),
        ("ablation_swap", ablations::run_swap),
        ("ablation_half_full", ablations::run_half_vs_full),
        ("ablation_alternatives", ablations::run_vs_alternatives),
        ("ablation_itag", ablations::run_itag_threshold),
        ("ablation_scaling", ablations::run_ring_scaling),
        ("ablation_agents", ablations::run_agent_scaling),
        ("ablation_escape", ablations::run_escape_vs_swap),
        ("ablation_llc", ablations::run_llc_path),
        ("ablation_4p", ablations::run_multi_package),
        ("ablation_io", ablations::run_io_interference),
    ]
}
