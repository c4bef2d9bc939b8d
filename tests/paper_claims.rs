//! The paper's checkable claims, one test each, asserting today's
//! verdict through the checks that already measure them; a change that
//! moves a claim flips its test. EXPERIMENTS.md opens with this table.

#[path = "../crates/core/tests/scenarios/mod.rs"]
mod scenarios;

use noc_core::SocSpec;
use noc_experiments::{ablations, table05, table07, Scale};
use scenarios::Outcome;

#[derive(Debug, PartialEq)]
enum Verdict {
    Reproduced,
    Deviates(f64),
    Refuted,
}
use Verdict::*;

fn holds(claim: bool) -> Verdict {
    if claim {
        Reproduced
    } else {
        Refuted
    }
}

/// Whether an experiment's shape check, found by its note, passed.
fn passes(notes: &[String], check: &str) -> bool {
    notes
        .iter()
        .any(|n| n.contains(check) && n.contains("PASS"))
}

#[test]
fn itag_starvation_freedom() {
    let r = ablations::run_itag_threshold(Scale::Quick); // §4.1.2
    assert_eq!(holds(passes(&r.notes, "starvation freedom")), Reproduced);
}

/// §4.1.2: the `properties` proptest's scenario at 12 stations.
#[test]
fn etag_at_most_one_extra_lap() {
    let probe = scenarios::etag_probe(12, 1).unwrap();
    assert_eq!(holds(probe.deflections == 1), Reproduced);
}

#[test]
fn swap_resolves_the_fig9_deadlock() {
    let r = ablations::run_swap(Scale::Quick); // §4.4
    assert_eq!(holds(passes(&r.notes, "SWAP sustains")), Reproduced);
}

/// Not under open-loop overload: after 500 cycles at 1.0 flit/device/
/// cycle the AI SoC stops moving with flits inside (`overload_drains`).
#[test]
fn the_mechanisms_keep_the_socs_live() {
    let spec = SocSpec::from_json(include_str!("../specs/ai_processor.json")).unwrap();
    let (outcome, _) = scenarios::overload_then_drain(&spec, 0).unwrap();
    assert_eq!(holds(matches!(outcome, Outcome::Drained(_))), Refuted);
}

#[test]
fn the_ai_soc_reaches_16_tbs() {
    let tbs = table07::run_ratio(1, 1, Scale::Quick).total_tbs(); // Table 7
    assert!(tbs < 16.0, "reproduced: {tbs} TB/s");
    assert_eq!(Deviates((tbs * 10.0).round() / 10.0), Deviates(14.8)); // 14.9 at full scale
}

/// Table 5 (paper: M/E/S 44/44/48 intra-, 65/65/69 inter-chiplet): M/E fall
/// 14 short, all protocol (`table5_split`); S slower than M/E is refuted.
#[test]
fn table5_latencies_and_orderings() {
    let r = table05::run(Scale::Quick);
    let ours: Vec<f64> = r.rows.iter().map(|row| row[2].parse().unwrap()).collect();
    let paper = [44.0, 44.0, 48.0, 65.0, 65.0, 69.0];
    let gap = [0, 1, 3, 4].map(|i| paper[i] - ours[i]).into_iter();
    assert_eq!(Deviates(gap.fold(0.0, f64::max)), Deviates(14.0));
    assert_eq!(holds(ours[2] > ours[0] && ours[5] > ours[3]), Refuted);
}
