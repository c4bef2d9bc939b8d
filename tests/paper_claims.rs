//! The paper's checkable claims, one test each, asserting today's
//! verdict through the checks that already measure them; a change that
//! moves a claim flips its test. EXPERIMENTS.md opens with this table,
//! and the last test holds its verdict column to [`SCORECARD`].

#[path = "../crates/core/tests/scenarios/mod.rs"]
mod scenarios;

use noc_core::drive;
use noc_core::SocSpec;
use noc_experiments::{ablations, table05, table07, Scale};

#[derive(Debug, PartialEq)]
enum Verdict {
    Reproduced,
    Deviates(f64),
    Refuted,
}
use Verdict::*;

// The verdict each claim test below asserts.
const ITAG: Verdict = Reproduced;
const ETAG: Verdict = Reproduced;
const SWAP: Verdict = Reproduced;
const LIVENESS: Verdict = Refuted;
const AI_16_TBS: Verdict = Deviates(14.8);
const TABLE5_GAP: Verdict = Deviates(14.0);

/// Those verdicts in the scorecard's row order.
const SCORECARD: [Verdict; 6] = [ITAG, ETAG, SWAP, LIVENESS, AI_16_TBS, TABLE5_GAP];

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
    assert_eq!(holds(passes(&r.notes, "starvation freedom")), ITAG);
}

/// §4.1.2: the `properties` proptest's scenario at 12 stations.
#[test]
fn etag_at_most_one_extra_lap() {
    let probe = scenarios::etag_probe(12, 1).unwrap();
    assert_eq!(holds(probe.deflections == 1), ETAG);
}

#[test]
fn swap_resolves_the_fig9_deadlock() {
    let r = ablations::run_swap(Scale::Quick); // §4.4
    assert_eq!(holds(passes(&r.notes, "SWAP sustains")), SWAP);
}

/// Not under open-loop overload: after 500 cycles at 1.0 flit/device/
/// cycle the AI SoC stops moving with flits inside (`overload_drains`).
#[test]
fn the_mechanisms_keep_the_socs_live() {
    let spec = SocSpec::from_json(include_str!("../specs/ai_processor.json")).unwrap();
    let (outcome, _) = scenarios::overload_then_drain(&spec, 0).unwrap();
    assert_eq!(
        holds(matches!(outcome, drive::Verdict::Drained(_))),
        LIVENESS
    );
}

#[test]
fn the_ai_soc_reaches_16_tbs() {
    let tbs = table07::run_ratio(1, 1, Scale::Quick).total_tbs(); // Table 7
    assert!(tbs < 16.0, "reproduced: {tbs} TB/s");
    assert_eq!(Deviates((tbs * 10.0).round() / 10.0), AI_16_TBS); // 14.9 at full scale
}

/// Table 5 (paper: M/E/S 44/44/48 intra-, 65/65/69 inter-chiplet): M/E fall
/// 14 short, all protocol (`table5_split`); S slower than M/E is refuted.
#[test]
fn table5_latencies_and_orderings() {
    let r = table05::run(Scale::Quick);
    let ours: Vec<f64> = r.rows.iter().map(|row| row[2].parse().unwrap()).collect();
    let paper = [44.0, 44.0, 48.0, 65.0, 65.0, 69.0];
    let gap = [0, 1, 3, 4].map(|i| paper[i] - ours[i]).into_iter();
    assert_eq!(Deviates(gap.fold(0.0, f64::max)), TABLE5_GAP);
    assert_eq!(holds(ours[2] > ours[0] && ours[5] > ours[3]), Refuted);
}

/// EXPERIMENTS.md's scorecard says what the tests above assert: its
/// verdict column, read row by row up to the first space or colon,
/// is [`SCORECARD`].
#[test]
fn the_scorecard_table_carries_the_asserted_verdicts() {
    let doc = include_str!("../EXPERIMENTS.md");
    let table = doc
        .split("## Scorecard")
        .nth(1)
        .expect("EXPERIMENTS.md has a scorecard section");
    let verdicts: Vec<Verdict> = table
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .skip(2) // header and separator
        .map(|row| {
            let cell = row.trim_end_matches('|').rsplit('|').next().unwrap().trim();
            let word = cell.split([' ', ':']).next().unwrap();
            parse_verdict(word).unwrap_or_else(|| panic!("no verdict in {row:?}"))
        })
        .collect();
    assert_eq!(verdicts, SCORECARD);
}

/// `Reproduced`, `Refuted` or `Deviates(x)`.
fn parse_verdict(word: &str) -> Option<Verdict> {
    match word {
        "Reproduced" => Some(Reproduced),
        "Refuted" => Some(Refuted),
        _ => {
            let x = word.strip_prefix("Deviates(")?.strip_suffix(')')?;
            Some(Deviates(x.parse().ok()?))
        }
    }
}
