//! Cross-commit anchor for `repro --quick`: the FNV-1a hash of every
//! experiment's `results/<id>.json`, pinned as constants.
//!
//! Each row hashes `serde_json::to_string_pretty(&result)`, exactly the
//! bytes `repro` writes, so any simulated number that moves in any table
//! or figure fails here. The experiments run the way `repro` runs them:
//! side by side on scoped threads, one per available CPU, each worker
//! taking the next experiment not yet started. `REPRO_GOLDENS` was
//! produced at commit 897656e and may not be regenerated in a change
//! that claims to preserve behaviour; a change that moves a result on
//! purpose regenerates it knowingly and lists the moved rows.

use noc_experiments::{all_experiments, Scale};
use std::sync::atomic::{AtomicUsize, Ordering};
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

#[test]
fn repro_quick_results_are_byte_identical() {
    let experiments = all_experiments();
    let workers = thread::available_parallelism().map_or(1, |n| n.get());
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, &str, u64)> = thread::scope(|s| {
        let handles: Vec<_> = (0..workers.min(experiments.len()))
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(id, runner)) = experiments.get(i) else {
                            return mine;
                        };
                        let json = serde_json::to_string_pretty(&runner(Scale::Quick))
                            .expect("results serialise");
                        mine.push((i, id, fnv(&json)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("an experiment panicked"))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, ..)| i);

    let got: Vec<(&str, u64)> = done.into_iter().map(|(_, id, h)| (id, h)).collect();
    for (id, h) in &got {
        println!("    (\"{id}\", 0x{h:016x}),");
    }
    assert_eq!(got, REPRO_GOLDENS, "a `repro --quick` result moved");
}
