//! Engine profile: the 64-station microbench workloads, shared by the
//! `repro` summary, the telemetry-overhead guard bench, and the
//! telemetry example — generic over the trace sink so the same workload
//! runs untraced (`NullSink`) or recorded (`RingBufferSink`).
//!
//! The `engine_profile` experiment surfaces `TickProfile` — above all
//! `skip_fraction()`, the fraction of station visits the
//! event-indexed fast path proved unnecessary — for the two
//! canonical load points: ~9% occupancy (12 flits over 128 slots) and
//! saturation (every station pushing every cycle).

use crate::report::{fnum, ExperimentResult, Scale};
use noc_core::telemetry::{NullSink, TraceSink};
use noc_core::{FlitClass, Network, NetworkConfig, NodeId, RingKind, TickMode, TopologyBuilder};

/// Closed-loop flit count that holds the 64-station full ring (128
/// slots) near 9% occupancy.
pub const LOW_OCCUPANCY_INFLIGHT: u64 = 12;

/// 64-station full ring with a device on every station, traced by
/// `sink`.
pub fn ring64_with_sink<S: TraceSink>(mode: TickMode, sink: S) -> (Network<S>, Vec<NodeId>) {
    let mut b = TopologyBuilder::new();
    let die = b.add_chiplet("die");
    let r = b.add_ring(die, RingKind::Full, 64).expect("ring");
    let eps: Vec<_> = (0..64)
        .map(|i| b.add_node(format!("n{i}"), r, i).expect("node"))
        .collect();
    let net = Network::with_sink(
        b.build().expect("valid"),
        NetworkConfig::default(),
        mode,
        sink,
    );
    (net, eps)
}

/// Closed loop of `inflight` flits: each delivery immediately re-sends,
/// holding ring occupancy near `inflight / 128` slots.
pub fn run_low_occupancy_with_sink<S: TraceSink>(
    mode: TickMode,
    cycles: u64,
    inflight: u64,
    sink: S,
) -> Network<S> {
    let (mut net, eps) = ring64_with_sink(mode, sink);
    for i in 0..inflight {
        let s = eps[(i * 11 % 64) as usize];
        let d = eps[((i * 11 + 32) % 64) as usize];
        net.enqueue(s, d, FlitClass::Data, 64, i)
            .expect("seed flit");
    }
    for _ in 0..cycles {
        net.tick();
        for ei in 0..eps.len() {
            while let Some(f) = net.pop_delivered(eps[ei]) {
                let back = eps[(ei + 17) % 64];
                let _ = net.enqueue(eps[ei], back, FlitClass::Data, 64, f.token);
            }
        }
    }
    net
}

/// Every station tries to enqueue every cycle: inject queues stay full
/// and every station's head wants a slot. All of this traffic takes the
/// clockwise arc (21–33 of 64 stations), so lane 1 stays idle.
pub fn run_saturated_with_sink<S: TraceSink>(mode: TickMode, cycles: u64, sink: S) -> Network<S> {
    let (mut net, eps) = ring64_with_sink(mode, sink);
    for c in 0..cycles {
        for (i, &s) in eps.iter().enumerate() {
            let d = eps[(i + 21 + (c as usize % 13)) % 64];
            if s != d {
                let _ = net.enqueue(s, d, FlitClass::Data, 64, c);
            }
        }
        net.tick();
        for &e in &eps {
            while net.pop_delivered(e).is_some() {}
        }
    }
    net
}

/// Surface the engine's tick profile (skip fractions) in the repro
/// summary.
pub fn run(scale: Scale) -> ExperimentResult {
    let cycles = scale.pick(1_000, 10_000);
    let mut r = ExperimentResult::new(
        "engine_profile",
        "Event-indexed tick: station visits skipped per workload",
    )
    .with_header(vec![
        "workload",
        "mode",
        "stations visited",
        "stations total",
        "skip fraction",
    ]);

    let mut row = |workload: &str, mode: TickMode, net: &Network| {
        let p = net.tick_profile();
        r.push_row(vec![
            workload.to_string(),
            format!("{mode:?}"),
            p.stations_visited.to_string(),
            p.stations_total.to_string(),
            fnum(p.skip_fraction(), 3),
        ]);
        p.skip_fraction()
    };

    let low_fast =
        run_low_occupancy_with_sink(TickMode::Fast, cycles, LOW_OCCUPANCY_INFLIGHT, NullSink);
    let sf_low = row("low_occupancy(9%)", TickMode::Fast, &low_fast);
    let low_ref = run_low_occupancy_with_sink(
        TickMode::Reference,
        cycles,
        LOW_OCCUPANCY_INFLIGHT,
        NullSink,
    );
    let sf_low_ref = row("low_occupancy(9%)", TickMode::Reference, &low_ref);
    let sat_fast = run_saturated_with_sink(TickMode::Fast, cycles, NullSink);
    let sf_sat = row("saturated", TickMode::Fast, &sat_fast);

    r.note(format!(
        "fast path skips {:.1}% of station visits at 9% occupancy — {}",
        sf_low * 100.0,
        if sf_low > 0.5 { "PASS" } else { "FAIL" }
    ));
    r.note(format!(
        "reference mode never skips ({:.3}) — {}",
        sf_low_ref,
        if sf_low_ref == 0.0 { "PASS" } else { "FAIL" }
    ));
    r.note(format!(
        "saturated: a head wants lane 0 at every station, lane 1 is idle (skip {:.3}) — {}",
        sf_sat,
        if sf_sat == 0.5 { "PASS" } else { "FAIL" }
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_profile_quick() {
        let r = run(Scale::Quick);
        assert_eq!(r.rows.len(), 3);
        assert!(r.notes.iter().all(|n| n.ends_with("PASS")), "{:?}", r.notes);
    }
}
