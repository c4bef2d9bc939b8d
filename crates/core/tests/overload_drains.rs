//! Drain after overload, on the paper's two SoCs and the benchmark's
//! generated 4×4 torus: whether deflection routing, the I-tag/E-tag
//! rules and SWAP (§4.1, §4.4) let a fabric empty once offered load
//! stops.
//!
//! Each fabric — both committed specs (`specs/*.json`) and the
//! `topogen` torus the benchmark's `torus4_*` workloads run on — takes
//! open-loop uniform traffic
//! at 1.0 flit per device per cycle for [`INJECT`] cycles: every device
//! offers one flit each cycle to a uniformly drawn other device, a
//! refused enqueue is dropped, and every delivery is popped the cycle it
//! lands. Then the fabric drains with no new traffic until it is empty
//! or until [`Network::stalled_for`] reaches the driver's `STALL_W` cycles. Every
//! (fabric, seed) outcome is pinned in [`OVERLOAD_KNOWN_WEDGES`],
//! drained rows included, so a mechanism that lets the fabric drain
//! after overload flips rows here. A wedged run's
//! [`Network::stall_report`] must name a full lane or a full escape,
//! and every row that does not match its pin prints its report.

mod scenarios;

use noc_core::drive::Verdict::{self, Drained, Wedged};
use noc_core::drive::{drain, OpenLoop};
use noc_core::spec::{devices_by_name, SocSpec};
use noc_core::GridParams;
use noc_sim::fuzz::TrafficPattern;
use noc_sim::SimRng;
use scenarios::overload_then_drain;

/// Every run's outcome today, as `(fabric, seed, outcome)`. The AI SoC
/// wedges on every seed; the Server-CPU drains on seven of ten (the
/// inject queues cap what 500 cycles of overload can put in) and wedges
/// on three; the benchmark's 4×4 torus drains on all ten, 421–829
/// cycles after injection stops.
#[rustfmt::skip]
const OVERLOAD_KNOWN_WEDGES: &[(&str, u64, Verdict)] = &[
    ("server_cpu", 0, Drained(781)),
    ("server_cpu", 1, Drained(480)),
    ("server_cpu", 2, Drained(821)),
    ("server_cpu", 3, Drained(729)),
    ("server_cpu", 4, Wedged(456)),
    ("server_cpu", 5, Drained(682)),
    ("server_cpu", 6, Drained(649)),
    ("server_cpu", 7, Drained(977)),
    ("server_cpu", 8, Wedged(462)),
    ("server_cpu", 9, Wedged(452)),
    ("ai_processor", 0, Wedged(7097)),
    ("ai_processor", 1, Wedged(6812)),
    ("ai_processor", 2, Wedged(6955)),
    ("ai_processor", 3, Wedged(6932)),
    ("ai_processor", 4, Wedged(7136)),
    ("ai_processor", 5, Wedged(7171)),
    ("ai_processor", 6, Wedged(7183)),
    ("ai_processor", 7, Wedged(6768)),
    ("ai_processor", 8, Wedged(6725)),
    ("ai_processor", 9, Wedged(7307)),
    ("torus4", 0, Drained(763)),
    ("torus4", 1, Drained(512)),
    ("torus4", 2, Drained(625)),
    ("torus4", 3, Drained(650)),
    ("torus4", 4, Drained(665)),
    ("torus4", 5, Drained(421)),
    ("torus4", 6, Drained(829)),
    ("torus4", 7, Drained(453)),
    ("torus4", 8, Drained(589)),
    ("torus4", 9, Drained(549)),
];

/// Run seeds 0–9 of `name` on `spec` and check every outcome against
/// its pin, and every wedge's report against the full-resource rule.
fn spec_matches_pins(name: &str, spec: &SocSpec) {
    let mut wrong = Vec::new();
    for seed in 0..10u64 {
        let want = OVERLOAD_KNOWN_WEDGES
            .iter()
            .find(|&&(n, s, _)| n == name && s == seed)
            .map(|&(_, _, o)| o);
        match overload_then_drain(spec, seed) {
            Ok((got, report)) => {
                if Some(got) != want {
                    wrong.push(format!(
                        "seed {seed}: got {got:?}, pinned {want:?}\n{report}"
                    ));
                } else if matches!(got, Wedged(_)) && !report.names_a_full_resource() {
                    wrong.push(format!(
                        "seed {seed}: wedged, but the report names no full lane or escape\n{report}"
                    ));
                }
            }
            Err(e) => wrong.push(format!("seed {seed}: {e}, pinned {want:?}")),
        }
    }
    assert!(
        wrong.is_empty(),
        "{name}: update OVERLOAD_KNOWN_WEDGES\n{}",
        wrong.join("\n")
    );
}

fn committed(json: &str) -> SocSpec {
    SocSpec::from_json(json).expect("committed spec parses")
}

#[test]
fn server_cpu_overload_outcomes_are_pinned() {
    spec_matches_pins(
        "server_cpu",
        &committed(include_str!("../../../specs/server_cpu.json")),
    );
}

#[test]
fn ai_processor_overload_outcomes_are_pinned() {
    spec_matches_pins(
        "ai_processor",
        &committed(include_str!("../../../specs/ai_processor.json")),
    );
}

/// The benchmark's `torus4_*` fabric: a 4×4 torus of 16-station rings,
/// two devices per ring, generated at the benchmark's seed.
#[test]
fn torus4_overload_outcomes_are_pinned() {
    let spec = GridParams::torus(4, 4)
        .with_stations(16)
        .with_devices(2)
        .with_seed(0x7261_6a65)
        .generate()
        .expect("the torus generates");
    spec_matches_pins("torus4", &spec);
}

/// The `topologies` example's run: a 4×4 torus of 12-station rings,
/// two devices per ring at placement seed 42, offered hotspot traffic
/// (70 % of flits to device 0) at 0.2 flit per device per cycle from
/// RNG seed 2022 for `HOTSPOT_INJECT` cycles. Well below the uniform
/// overload above, it wedges: rings full and escapes full around the
/// hot ring, with no progress from about cycle 1 300 on.
#[test]
fn hotspot_torus_wedges_under_the_topologies_example_load() {
    const HOTSPOT_INJECT: u64 = 6_000;
    let (mut net, names) = GridParams::torus(4, 4)
        .with_stations(12)
        .with_devices(2)
        .with_seed(42)
        .build()
        .expect("the torus builds");
    let pattern = TrafficPattern::Hotspot {
        target: 0,
        bias: 0.7,
    };
    let mut offers = OpenLoop::new(devices_by_name(&names), pattern, 0.2);
    let mut rng = SimRng::seed_from(2022);
    for _ in 0..HOTSPOT_INJECT {
        offers.offer(&mut net, &mut rng);
        net.tick();
        offers.pop_all(&mut net);
    }
    let verdict = drain(&mut net, 24_000, |net| {
        offers.pop_all(net);
        Ok(())
    })
    .expect("popping never fails");
    let report = net.stall_report();
    assert!(matches!(verdict, Wedged(_)), "{verdict:?}\n{report}");
    assert!(report.names_a_full_resource(), "{report}");
}
