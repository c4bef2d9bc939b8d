//! Malformed-input fuzz of the spec front end.
//!
//! Each case takes one of the committed paper-SoC specs
//! (`specs/server_cpu.json`, `specs/ai_processor.json`), changes one
//! field — a device's station, a ring's size, a bridge's latency, width,
//! buffer or endpoint, a queue capacity — or removes a bridge or empties
//! a chiplet, ring or the chiplet list, re-serializes it and runs
//! `SocSpec::from_json` then `build`. Either may fail, but only with a
//! typed [`SpecError`]: a panic or abort on spec input is a bug.

use noc_core::spec::{SocSpec, MAX_QUEUE_CAP};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

const SERVER_CPU: &str = include_str!("../../../specs/server_cpu.json");
const AI_PROCESSOR: &str = include_str!("../../../specs/ai_processor.json");

/// Boundary values first, then anything below `small`.
fn pick_u64(rng: &mut TestRng, edges: &[u64], small: u64) -> u64 {
    let i = rng.below(edges.len() as u64 + 1) as usize;
    edges.get(i).copied().unwrap_or_else(|| rng.below(small))
}

/// Apply one mutation to `spec`, returning what it did.
fn mutate(spec: &mut SocSpec, kind: u32, rng: &mut TestRng) -> String {
    let u16_edges = [0, 1, 2, u64::from(u16::MAX)];
    let u32_edges = [0, 1, u64::from(u32::MAX)];
    let cap_edges = [0, 1, u64::MAX, 1 << 34];
    let n_bridges = spec.bridges.len() as u64;
    let any_bridge = |rng: &mut TestRng| rng.below(n_bridges) as usize;
    match kind {
        0 => {
            let devices: Vec<(usize, usize, usize)> =
                spec.chiplets
                    .iter()
                    .enumerate()
                    .flat_map(|(c, ch)| {
                        ch.rings.iter().enumerate().flat_map(move |(r, ring)| {
                            (0..ring.devices.len()).map(move |d| (c, r, d))
                        })
                    })
                    .collect();
            let (c, r, d) = devices[rng.below(devices.len() as u64) as usize];
            let v = pick_u64(rng, &u16_edges, 64) as u16;
            spec.chiplets[c].rings[r].devices[d].station = v;
            format!("chiplet {c} ring {r} device {d}: station = {v}")
        }
        1 => {
            let c = rng.below(spec.chiplets.len() as u64) as usize;
            let r = rng.below(spec.chiplets[c].rings.len() as u64) as usize;
            let v = pick_u64(rng, &u16_edges, 64) as u16;
            spec.chiplets[c].rings[r].stations = v;
            format!("chiplet {c} ring {r}: stations = {v}")
        }
        2 => {
            let b = any_bridge(rng);
            let v = pick_u64(rng, &u32_edges, 64) as u32;
            spec.bridges[b].latency = Some(v);
            format!("bridge {b}: latency = {v}")
        }
        3 => {
            let b = any_bridge(rng);
            let v = pick_u64(rng, &u32_edges, 16) as u32;
            spec.bridges[b].width = Some(v);
            format!("bridge {b}: width = {v}")
        }
        4 => {
            let b = any_bridge(rng);
            let v = pick_u64(rng, &cap_edges, 64) as usize;
            spec.bridges[b].buffer_cap = Some(v);
            format!("bridge {b}: buffer_cap = {v}")
        }
        5 => {
            let b = any_bridge(rng);
            let v = pick_u64(rng, &u16_edges, 64) as u16;
            let end = if rng.below(2) == 0 {
                &mut spec.bridges[b].a
            } else {
                &mut spec.bridges[b].b
            };
            end.station = v;
            format!("bridge {b}: endpoint station = {v}")
        }
        6 => {
            let b = any_bridge(rng);
            let v = pick_u64(rng, &[1, 2, u64::MAX], 8) as usize;
            spec.bridges[b].a.ring = v;
            format!("bridge {b}: endpoint ring = {v}")
        }
        7 => {
            let edges = [0, 1, MAX_QUEUE_CAP as u64, MAX_QUEUE_CAP as u64 + 1]
                .into_iter()
                .chain(cap_edges)
                .collect::<Vec<_>>();
            let v = pick_u64(rng, &edges, 32) as usize;
            if rng.below(2) == 0 {
                spec.network.inject_queue_cap = v;
                format!("inject_queue_cap = {v}")
            } else {
                spec.network.eject_queue_cap = v;
                format!("eject_queue_cap = {v}")
            }
        }
        8 => {
            let b = any_bridge(rng);
            spec.bridges.remove(b);
            format!("bridge {b} removed")
        }
        9 => {
            let c = rng.below(spec.chiplets.len() as u64) as usize;
            spec.chiplets[c].rings.clear();
            format!("chiplet {c}: rings emptied")
        }
        10 => {
            let c = rng.below(spec.chiplets.len() as u64) as usize;
            let r = rng.below(spec.chiplets[c].rings.len() as u64) as usize;
            spec.chiplets[c].rings[r].devices.clear();
            format!("chiplet {c} ring {r}: devices emptied")
        }
        _ => {
            spec.chiplets.clear();
            "chiplet list emptied".to_string()
        }
    }
}

/// Mutate `base` once and build it; `Err` names a panic.
fn check(base: &str, kind: u32, rng: &mut TestRng) -> Result<(), TestCaseError> {
    let mut spec = SocSpec::from_json(base).expect("committed spec parses");
    let what = mutate(&mut spec, kind, rng);
    let json = spec.to_json().expect("serializes");
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        SocSpec::from_json(&json).and_then(|s| s.build().map(|_| ()))
    }));
    prop_assert!(
        outcome.is_ok(),
        "{}: `{what}` panicked instead of returning a SpecError",
        spec.name
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn mutated_server_cpu_spec_builds_or_errs(kind in 0u32..12, seed in any::<u64>()) {
        check(SERVER_CPU, kind, &mut TestRng::for_case("server_cpu", seed as u32))?;
    }

    #[test]
    fn mutated_ai_processor_spec_builds_or_errs(kind in 0u32..12, seed in any::<u64>()) {
        check(AI_PROCESSOR, kind, &mut TestRng::for_case("ai_processor", seed as u32))?;
    }
}
