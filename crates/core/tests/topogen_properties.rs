//! Generative property-fuzz harness over generated fabrics
//! (DESIGN.md §13).
//!
//! proptest strategies sample generator parameters (grid/torus sizes,
//! ring kinds, station counts, device densities, hierarchy widths),
//! build the fabric through [`GridParams`]/[`HierRingParams`], drive
//! seeded uniform or hotspot traffic, and assert the standing
//! invariants on *every* sampled topology:
//!
//! * per-tick flit conservation (resident = in-flight + undrained;
//!   enqueued = delivered + in-flight),
//! * the generalized E-tag one-lap bound on delivered flits,
//! * the I-tag starvation bound (under the deflection-free
//!   precondition, as in `properties.rs`),
//!
//! and, in debug builds, the engine's own per-cycle check of its
//! station indices against the route table. The same invariants run
//! on the paper's two SoCs, read from their committed specs
//! (`specs/*.json`), over a fixed seed matrix with the known defects
//! pinned as failing.
//!
//! A failing case saves the generated `SocSpec` JSON under the fuzz
//! artifact directory (`NOC_TOPO_FUZZ_ARTIFACT_DIR`, default
//! `target/topo-fuzz`) and prints the placement seed, so the exact
//! fabric reproduces from the message alone. The fixed-matrix
//! acceptance test reads its seeds from `NOC_TOPO_FUZZ_SEED_BASE` /
//! `NOC_TOPO_FUZZ_SEEDS` — the knobs the CI `topo-fuzz` job pins.

use noc_core::spec::SocSpec;
use noc_core::topogen::{GridParams, HierRingParams, TopoGenError};
use noc_core::{FlitClass, Network, NodeId, RingKind, SpecError, TopologyError};
use noc_sim::fuzz::{save_failing_artifact, SeedMatrix, TrafficPattern};
use noc_sim::SimRng;
use proptest::prelude::*;

/// Drain cycles without progress ([`Network::stalled_for`]) after which
/// a run counts as wedged: the ring-of-rings ablation's window.
const STALL_W: u64 = 5_000;

/// Ends a drain failure that stopped on the stall verdict rather than
/// on the 20 000-cycle budget.
const STALL_VERDICT: &str = "; stalled 5000 cycles";

/// Drive one generated fabric under one seeded traffic schedule,
/// checking every standing invariant along the way. The drain after
/// the injection phase ends when the fabric is empty, when it has made
/// no progress for [`STALL_W`] cycles, or after 20 000 cycles. Returns
/// a human-readable description of the first violation.
fn fuzz_fabric(
    spec: &SocSpec,
    traffic_seed: u64,
    pattern: TrafficPattern,
    cycles: u64,
    rate: f64,
) -> Result<(), String> {
    let (topo, names) = spec
        .compile()
        .map_err(|e| format!("validated spec failed to compile: {e}"))?;
    let mut named: Vec<(&String, NodeId)> = names.iter().map(|(k, v)| (k, *v)).collect();
    named.sort();
    let devices: Vec<NodeId> = named.into_iter().map(|(_, id)| id).collect();
    if devices.len() < 2 {
        return Err("fabric has fewer than two devices".into());
    }

    let cfg = spec.network.clone();
    let mut net = Network::new(topo.clone(), cfg);

    let total_stations = topo.total_stations();
    let max_ring = topo
        .rings()
        .iter()
        .map(|r| r.stations as u64)
        .max()
        .unwrap_or(1);
    let mut rng = SimRng::seed_from(traffic_seed);
    let drain_period = 1 + traffic_seed % 3;
    let mut token = 0u64;
    let mut max_starve = 0u32;
    let mut delivered_checked = 0u64;
    for cycle in 0..cycles + 20_000 {
        if cycle < cycles {
            for si in 0..devices.len() {
                if !rng.gen_bool(rate) {
                    continue;
                }
                let di = pattern.pick_dest(&mut rng, devices.len(), si);
                token += 1;
                let _ = net.enqueue(devices[si], devices[di], FlitClass::Data, 64, token);
            }
        }
        net.tick();

        // Invariant 1, per-tick form.
        let undrained: u64 = devices.iter().map(|&d| net.delivered_len(d) as u64).sum();
        let resident = net.count_resident_flits();
        let in_flight = net.in_flight();
        if resident != in_flight + undrained {
            return Err(format!(
                "cycle {cycle}: resident flits {resident} != in-flight {in_flight} \
                 + undrained {undrained}"
            ));
        }
        let s = net.stats();
        if s.enqueued.get() != s.delivered.get() + in_flight {
            return Err(format!(
                "cycle {cycle}: enqueued {} != delivered {} + in-flight {in_flight}",
                s.enqueued.get(),
                s.delivered.get()
            ));
        }
        for &d in &devices {
            max_starve = max_starve.max(net.starve_of(d));
        }

        if cycle % drain_period == 0 || cycle >= cycles {
            for &d in &devices {
                while let Some(fr) = net.pop_delivered(d) {
                    // Generalized E-tag one-lap bound: the direct route
                    // visits each ring at most once (≤ the fabric's total
                    // stations per visited ring segment) and every
                    // recorded deflection costs at most one extra lap.
                    let bound =
                        (fr.deflections as u64 + fr.ring_changes as u64 + 2) * total_stations;
                    if fr.hops as u64 > bound {
                        return Err(format!(
                            "cycle {cycle}: hops {} exceed one-lap bound {bound} \
                             (deflections {}, ring changes {})",
                            fr.hops, fr.deflections, fr.ring_changes
                        ));
                    }
                    delivered_checked += 1;
                }
            }
        }
        if cycle >= cycles && (net.in_flight() == 0 || net.stalled_for() >= STALL_W) {
            break;
        }
    }
    if net.in_flight() != 0 {
        let verdict = if net.stalled_for() >= STALL_W {
            STALL_VERDICT
        } else {
            ""
        };
        return Err(format!(
            "failed to drain within budget ({} flits left){verdict}",
            net.in_flight()
        ));
    }

    // Invariant 3: the I-tag starvation bound holds whenever the run was
    // deflection-free (the precondition under which tagged slots are
    // guaranteed to come back empty — see properties.rs).
    if net.stats().deflections.get() == 0
        && max_starve as u64 > spec.network.itag_threshold as u64 + max_ring
    {
        return Err(format!(
            "starve counter {max_starve} > threshold {} + circumference {max_ring} \
             in a deflection-free run",
            spec.network.itag_threshold
        ));
    }
    if token > 0 && delivered_checked == 0 {
        return Err("no deliveries despite sends".into());
    }
    Ok(())
}

/// On failure, drop the spec JSON where the CI job uploads artifacts
/// from and return a message that reproduces the case by itself.
fn report_failure(spec: &SocSpec, tag: &str, seed: u64, msg: &str) -> String {
    let json = spec
        .to_json()
        .unwrap_or_else(|e| format!("{{\"unserializable\":\"{e}\"}}"));
    let saved = match save_failing_artifact(tag, &json) {
        Ok(path) => format!("spec saved to {}", path.display()),
        Err(e) => format!("spec could not be saved: {e}"),
    };
    format!("{msg}; generator seed {seed:#x}; {saved}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Every sampled grid/torus fabric holds the standing invariants
    /// under seeded uniform or hotspot traffic.
    #[test]
    fn generated_grids_hold_invariants(
        rows in 1u16..5,
        cols in 1u16..5,
        stations in 6u16..12,
        devices in 1u16..4,
        wrap in any::<bool>(),
        half in any::<bool>(),
        hotspot in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let base = if wrap {
            GridParams::torus(rows, cols)
        } else {
            GridParams::grid(rows, cols)
        };
        let params = base
            .with_stations(stations)
            .with_devices(devices)
            .with_kind(if half { RingKind::Half } else { RingKind::Full })
            .with_seed(seed);
        let spec = params.generate();
        prop_assert!(spec.is_ok(), "generator rejected valid params: {:?}", spec.err());
        let spec = spec.unwrap();
        // Single-device fabrics have nothing to send; placement alone
        // was the test then.
        if spec.total_devices() < 2 {
            return Ok(());
        }
        let pattern = if hotspot {
            TrafficPattern::Hotspot { target: 0, bias: 0.5 }
        } else {
            TrafficPattern::Uniform
        };
        if let Err(msg) = fuzz_fabric(&spec, seed ^ 0x70706f, pattern, 120, 0.2) {
            let tag = format!("grid-{rows}x{cols}-s{stations}-d{devices}-{seed:016x}");
            prop_assert!(false, "{}", report_failure(&spec, &tag, seed, &msg));
        }
    }

    /// Every sampled hierarchical-ring fabric holds the same invariants:
    /// local rings, one global transit ring, RBRG-L2 bridges.
    #[test]
    fn generated_hierarchies_hold_invariants(
        locals in 1u16..7,
        local_stations in 4u16..10,
        extra_global in 0u16..5,
        devices in 1u16..4,
        half in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let params = HierRingParams::new(locals)
            .with_local_stations(local_stations)
            .with_global_stations(locals.max(4) + extra_global)
            .with_devices(devices)
            .with_seed(seed);
        let mut params = params;
        if half {
            params.local_kind = RingKind::Half;
        }
        let spec = params.generate();
        prop_assert!(spec.is_ok(), "generator rejected valid params: {:?}", spec.err());
        let spec = spec.unwrap();
        if spec.total_devices() < 2 {
            return Ok(());
        }
        if let Err(msg) = fuzz_fabric(&spec, seed ^ 0x4169, TrafficPattern::Uniform, 120, 0.2) {
            let tag = format!("hier-{locals}-s{local_stations}-d{devices}-{seed:016x}");
            prop_assert!(false, "{}", report_failure(&spec, &tag, seed, &msg));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Degenerate generator parameters must come back as the matching
    /// typed error — and never panic. The classification is exact:
    /// every rejection is attributable to the parameter that caused it.
    #[test]
    fn degenerate_parameters_return_typed_errors(
        rows in 0u16..4,
        cols in 0u16..4,
        stations in 1u16..7,
        devices in 0u16..4,
        wrap in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let base = if wrap {
            GridParams::torus(rows, cols)
        } else {
            GridParams::grid(rows, cols)
        };
        let params = base
            .with_stations(stations)
            .with_devices(devices)
            .with_seed(seed);
        match params.generate() {
            Ok(spec) => {
                // Whatever the generator accepts must compile cleanly.
                prop_assert!(spec.validate().is_ok());
            }
            Err(TopoGenError::EmptyGrid { .. }) => {
                prop_assert!(rows == 0 || cols == 0);
            }
            Err(TopoGenError::NoDevices) => {
                prop_assert!(devices == 0 && rows > 0 && cols > 0);
            }
            Err(TopoGenError::StationsTooSmall {
                stations: got,
                endpoints,
                devices: want,
                ..
            }) => {
                prop_assert!(rows > 0 && cols > 0 && devices > 0);
                prop_assert_eq!(got, stations);
                prop_assert_eq!(want, devices);
                prop_assert!(u32::from(got) < u32::from(endpoints) + devices.div_ceil(2) as u32);
            }
            Err(e) => {
                prop_assert!(false, "unexpected error class: {e}");
            }
        }
    }
}

/// Acceptance gate (ISSUE 6): a seeded 8×8 torus — 64 chiplets, 1024
/// stations — passes conservation, one-lap and starvation invariants
/// with the engine's per-cycle index check in debug builds, for every
/// seed of the
/// pinned matrix. Reproduce any failure from the printed seed:
/// `NOC_TOPO_FUZZ_SEED_BASE=<seed> NOC_TOPO_FUZZ_SEEDS=1`.
#[test]
fn acceptance_8x8_torus_1024_stations_across_modes() {
    let matrix = SeedMatrix::from_env(0x2022_4E0C, 2);
    for seed in matrix.seeds() {
        let params = GridParams::torus(8, 8)
            .with_stations(16)
            .with_devices(2)
            .with_seed(seed);
        let spec = params.generate().expect("8x8 torus generates");
        assert_eq!(spec.chiplets.len(), 64);
        assert_eq!(spec.total_stations(), 1024);
        if let Err(msg) = fuzz_fabric(&spec, seed, TrafficPattern::Uniform, 250, 0.15) {
            panic!(
                "{}",
                report_failure(&spec, &format!("acceptance-8x8-{seed:016x}"), seed, &msg)
            );
        }
    }
}

/// Hotspot traffic on a mid-size torus keeps the invariants under
/// concentrated ejection pressure (the E-tag stress case).
#[test]
fn hotspot_torus_holds_invariants() {
    let matrix = SeedMatrix::from_env(0x48_4F54, 2);
    for seed in matrix.seeds() {
        let spec = GridParams::torus(3, 3)
            .with_stations(10)
            .with_devices(3)
            .with_seed(seed)
            .generate()
            .expect("3x3 torus generates");
        let pattern = TrafficPattern::Hotspot {
            target: 0,
            bias: 0.6,
        };
        if let Err(msg) = fuzz_fabric(&spec, seed, pattern, 200, 0.25) {
            panic!(
                "{}",
                report_failure(&spec, &format!("hotspot-3x3-{seed:016x}"), seed, &msg)
            );
        }
    }
}

// ---- the paper's two SoCs ------------------------------------------

/// Runs of the paper-SoC matrix that fail today, as
/// `(spec, uniform-traffic seed, start of the failure message)`. Each is
/// asserted to fail that way, so a fix flips it rather than the load
/// being dropped from the matrix:
///
/// * Server-CPU: flits still in flight when the drain stops on the
///   stall verdict (each of these must, not on the cycle budget: a
///   wedge freezes the count); deflections keep climbing on a longer
///   drain, so this is a livelock although the fabric's bridge graph
///   is acyclic.
/// * AI-Processor: the I-tag starvation bound breaks in deflection-free
///   runs.
#[rustfmt::skip]
const PAPER_SOC_KNOWN_DEFECTS: &[(&str, u64, &str)] = &[
    ("server_cpu", 0, "failed to drain within budget (271 flits left)"),
    ("server_cpu", 9, "failed to drain within budget (231 flits left)"),
    ("server_cpu", 10, "failed to drain within budget (196 flits left)"),
    ("server_cpu", 23, "failed to drain within budget (298 flits left)"),
    ("ai_processor", 35, "starve counter 20 > threshold 8 + circumference 11"),
    ("ai_processor", 36, "starve counter 21 > threshold 8 + circumference 11"),
];

/// The generated-grid load on a committed paper-SoC spec: traffic
/// seeds 0–39 × {uniform, hotspot}, 120 cycles at rate 0.2. Every run
/// holds the invariants except the pinned known defects, which must
/// still fail as pinned.
fn paper_soc_matrix(name: &str, json: &str) {
    let spec = SocSpec::from_json(json).expect("committed spec parses");
    let mut wrong = Vec::new();
    for seed in 0..40u64 {
        let patterns = [
            ("uniform", TrafficPattern::Uniform),
            (
                "hotspot",
                TrafficPattern::Hotspot {
                    target: 0,
                    bias: 0.5,
                },
            ),
        ];
        for (pattern_name, pattern) in patterns {
            let known = PAPER_SOC_KNOWN_DEFECTS
                .iter()
                .find(|&&(n, s, _)| n == name && s == seed && pattern_name == "uniform");
            match (fuzz_fabric(&spec, seed, pattern, 120, 0.2), known) {
                (Ok(()), None) => {}
                (Err(msg), Some(&(_, _, want))) if msg.starts_with(want) => {
                    if want.starts_with("failed to drain") && !msg.ends_with(STALL_VERDICT) {
                        wrong.push(format!(
                            "{pattern_name} seed {seed}: \"{msg}\" ended on the cycle \
                             budget, not the stall verdict"
                        ));
                    }
                }
                (Ok(()), Some(&(_, _, want))) => wrong.push(format!(
                    "{pattern_name} seed {seed}: known defect \"{want}\" no longer fails; \
                     move it out of PAPER_SOC_KNOWN_DEFECTS"
                )),
                (Err(msg), _) => {
                    let tag = format!("{name}-{pattern_name}-{seed}");
                    wrong.push(format!(
                        "{pattern_name} seed {seed}: {}",
                        report_failure(&spec, &tag, seed, &msg)
                    ));
                }
            }
        }
    }
    assert!(wrong.is_empty(), "{name}:\n{}", wrong.join("\n"));
}

#[test]
fn server_cpu_spec_holds_invariants_but_for_known_defects() {
    paper_soc_matrix("server_cpu", include_str!("../../../specs/server_cpu.json"));
}

#[test]
fn ai_processor_spec_holds_invariants_but_for_known_defects() {
    paper_soc_matrix(
        "ai_processor",
        include_str!("../../../specs/ai_processor.json"),
    );
}

// ---- negative paths: typed errors, never panics ---------------------

#[test]
fn zero_by_k_grid_is_a_typed_error() {
    match GridParams::grid(0, 5).generate() {
        Err(TopoGenError::EmptyGrid { rows: 0, cols: 5 }) => {}
        other => panic!("expected EmptyGrid, got {other:?}"),
    }
}

#[test]
fn stations_too_small_for_bridge_endpoints_reports_shortfall() {
    // An interior torus die hosts 4 endpoints; 4 stations leave no room
    // for its devices.
    match GridParams::torus(3, 3).with_stations(4).generate() {
        Err(TopoGenError::StationsTooSmall {
            stations: 4,
            endpoints: 4,
            devices: 2,
            ..
        }) => {}
        other => panic!("expected StationsTooSmall, got {other:?}"),
    }
}

#[test]
fn unreachable_device_is_a_typed_spec_error() {
    // Strip the bridges off a valid 2×2 grid: the four rings still hold
    // devices but can no longer reach each other.
    let mut spec = GridParams::grid(2, 2)
        .generate()
        .expect("2x2 grid generates");
    spec.bridges.clear();
    // Drop the now-dangling endpoint reservations' stations back to
    // devices-only rings (the spec keeps device placements intact).
    match spec.validate() {
        Err(SpecError::Topology(TopologyError::Unreachable { .. })) => {}
        other => panic!("expected Unreachable, got {other:?}"),
    }
}
