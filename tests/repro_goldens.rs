//! Cross-commit anchor for `repro --quick`: the FNV-1a hash of every
//! experiment's `results/<id>.json`, pinned as constants.
//!
//! Each row hashes `serde_json::to_string_pretty(&result)`, exactly the
//! bytes `repro` writes, so any simulated number that moves in any table
//! or figure fails here. The experiments run once per test binary, the
//! way `repro` runs them, and a second, unpinned test reads the same
//! results for their shape checks. `REPRO_GOLDENS` was produced at
//! commit 897656e and may not be regenerated in a change that claims
//! to preserve behaviour; a change that moves a result on purpose
//! regenerates it knowingly and lists the moved rows.

use noc_experiments::{all_experiments, ExperimentResult, Scale};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(text: &str) -> u64 {
    text.bytes().fold(FNV_OFFSET, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(experiment id, FNV-1a of its pretty-printed JSON)`, in paper order.
const REPRO_GOLDENS: &[(&str, u64)] = &[
    ("fig03", 0x7a1fade647f48a1d),
    ("table04", 0x25f7bfc939a2cc3c),
    ("fig10", 0xe47f99a1250e19db),
    ("table05", 0xca1e08eaeed5e422),
    ("fig11", 0xbae297e2c614bfb4),
    ("fig12", 0x848f7542c5b0a3dd),
    ("fig13", 0x7328401fb05172a1),
    ("table06", 0x0a850f045a499420),
    ("table07", 0x45e329561b28017e),
    ("table03_traffic", 0x7545c60fdabc9c7b),
    ("fig14", 0xb94649b0523fabc9),
    ("table08", 0xab476f9db36cf376),
    ("table09", 0x7ea06d87219f53e0),
    ("ablation_swap", 0xbbd48b2c457fa04b),
    ("ablation_half_full", 0x2d2d49444b0100c3),
    ("ablation_alternatives", 0x6f00700ca3e5c3e7),
    ("ablation_itag", 0xd0c7520a92a9dca6),
    ("ablation_scaling", 0x5bf59fdf69509901),
    ("ablation_agents", 0x56ee52afa2b41f40),
    ("ablation_escape", 0x2165d1e3f9e65448),
    ("ablation_llc", 0x61d91961b25d949d),
    ("ablation_4p", 0x484eda26812d6d69),
    ("ablation_io", 0xd417bb71efa5ff44),
];

/// Every experiment's `Scale::Quick` result, in paper order, run once
/// per test binary the way `repro` runs them: side by side on scoped
/// threads, one per available CPU, each worker taking the next
/// experiment not yet started.
fn quick_results() -> &'static [ExperimentResult] {
    static RESULTS: OnceLock<Vec<ExperimentResult>> = OnceLock::new();
    RESULTS.get_or_init(|| {
        let experiments = all_experiments();
        let workers = thread::available_parallelism().map_or(1, |n| n.get());
        let next = AtomicUsize::new(0);
        let mut done: Vec<(usize, ExperimentResult)> = thread::scope(|s| {
            let handles: Vec<_> = (0..workers.min(experiments.len()))
                .map(|_| {
                    s.spawn(|| {
                        let mut mine = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&(_, runner)) = experiments.get(i) else {
                                return mine;
                            };
                            mine.push((i, runner(Scale::Quick)));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("an experiment panicked"))
                .collect()
        });
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, r)| r).collect()
    })
}

/// The result of experiment `id`.
fn result(id: &str) -> &'static ExperimentResult {
    quick_results()
        .iter()
        .find(|r| r.id == id)
        .unwrap_or_else(|| panic!("no experiment {id}"))
}

#[test]
fn repro_quick_results_are_byte_identical() {
    let got: Vec<(&str, u64)> = quick_results()
        .iter()
        .map(|r| {
            let json = serde_json::to_string_pretty(r).expect("results serialise");
            (r.id.as_str(), fnv(&json))
        })
        .collect();
    for (id, h) in &got {
        println!("    (\"{id}\", 0x{h:016x}),");
    }
    assert_eq!(got, REPRO_GOLDENS, "a `repro --quick` result moved");
}

/// The shape facts of every `repro --quick` result, unpinned: no shape
/// check fails anywhere, every experiment has rows and serialises to
/// JSON that names it, the tables have their row counts, and the checks
/// the paper's claims rest on pass.
#[test]
fn repro_quick_results_keep_their_shape() {
    for r in quick_results() {
        let fails: Vec<_> = r.notes.iter().filter(|n| n.ends_with("FAIL")).collect();
        assert!(fails.is_empty(), "{}: {fails:?}", r.id);
        assert!(!r.rows.is_empty(), "{} produced no rows", r.id);
        let json = serde_json::to_string(r).expect("results serialise");
        assert!(json.contains(&r.id), "{}: its JSON names no id", r.id);
    }
    for (id, rows) in [
        ("table05", 6),
        ("table06", 3),
        ("table07", 6),
        ("table08", 3),
        ("fig10", 8),
    ] {
        assert_eq!(result(id).rows.len(), rows, "{id}: row count");
    }
    for id in [
        "ablation_swap",
        "ablation_half_full",
        "ablation_itag",
        "fig14",
    ] {
        let notes = &result(id).notes;
        assert!(notes.iter().any(|n| n.contains("PASS")), "{id}: {notes:?}");
    }
    let fig11 = &result("fig11").notes;
    assert!(
        fig11.last().expect("fig11 has notes").contains("PASS"),
        "fig11: {fig11:?}"
    );
}
