//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--quick] [experiment-id ...]
//! ```
//!
//! With no ids, runs everything. The experiments are independent, so
//! they run side by side, one thread per available CPU; once all are
//! done their results are printed in paper order as aligned tables with
//! PASS/FAIL shape checks and also written as JSON to
//! `results/<id>.json`.

#![forbid(unsafe_code)]

use noc_experiments::{all_experiments, Scale};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick { Scale::Quick } else { Scale::Full };
    let wanted: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();

    let experiments = all_experiments();
    let selected: Vec<_> = if wanted.is_empty() {
        experiments
    } else {
        experiments
            .into_iter()
            .filter(|(id, _)| wanted.iter().any(|w| w.as_str() == *id))
            .collect()
    };
    if selected.is_empty() {
        eprintln!("no matching experiments; known ids:");
        for (id, _) in all_experiments() {
            eprintln!("  {id}");
        }
        std::process::exit(2);
    }

    // Each worker takes the next experiment not yet started, so the
    // longest ones overlap the rest.
    let workers = thread::available_parallelism().map_or(1, |n| n.get());
    let next = AtomicUsize::new(0);
    let mut done: Vec<_> = thread::scope(|s| {
        let handles: Vec<_> = (0..workers.min(selected.len()))
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(id, runner)) = selected.get(i) else {
                            return mine;
                        };
                        let start = Instant::now();
                        let result = runner(scale);
                        mine.push((i, id, result, start.elapsed()));
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

    let _ = std::fs::create_dir_all("results");
    let mut failures = 0usize;
    for (_, id, result, elapsed) in done {
        println!("{result}");
        println!("  ({id} completed in {:.1?}, scale {scale:?})\n", elapsed);
        failures += result.notes.iter().filter(|n| n.ends_with("FAIL")).count();
        if let Ok(json) = serde_json::to_string_pretty(&result) {
            let _ = std::fs::write(format!("results/{id}.json"), json);
        }
    }
    if failures > 0 {
        println!("!! {failures} shape check(s) FAILED");
        std::process::exit(1);
    }
    println!("all shape checks passed");
}
