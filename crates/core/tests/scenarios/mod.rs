//! Scenarios that measure one of the paper's claims, shared by the
//! suites that pin their outcomes (`properties`, `overload_drains`) and
//! the paper scorecard (`tests/paper_claims.rs`). Each user takes a
//! subset, hence the blanket `dead_code` allowance.
#![allow(dead_code)]

use noc_core::drive::{drain, OpenLoop, Verdict};
use noc_core::spec::{devices_by_name, SocSpec};
use noc_core::{Flit, FlitClass, Network, NetworkConfig, RingKind, StallReport, TopologyBuilder};
use noc_sim::fuzz::TrafficPattern;
use noc_sim::SimRng;

/// E-tag (§3.4.3, §4.1.2): on a full ring of `stations`, fill a sink's
/// `eject_cap`-deep Eject Queue and leave it undrained, send a probe
/// from the opposite station into it, and once the probe has deflected
/// and placed its E-tag, resume draining. Returns the probe as
/// delivered; `Err` if a step of the set-up did not happen.
pub fn etag_probe(stations: u16, eject_cap: usize) -> Result<Flit, String> {
    let mut b = TopologyBuilder::new();
    let die = b.add_chiplet("die");
    let r = b.add_ring(die, RingKind::Full, stations).unwrap();
    let sink = b.add_node("sink", r, 0).unwrap();
    let blocker_src = b.add_node("blk", r, 1).unwrap();
    let probe_src = b.add_node("probe", r, stations / 2).unwrap();
    let mut net = Network::new(
        b.build().unwrap(),
        NetworkConfig {
            eject_queue_cap: eject_cap,
            ..NetworkConfig::default()
        },
    );
    // Fill the sink's eject queue and leave it undrained.
    let mut sent = 0usize;
    for _ in 0..200 {
        if sent < eject_cap
            && net
                .enqueue(blocker_src, sink, FlitClass::Data, 64, 0)
                .is_ok()
        {
            sent += 1;
        }
        net.tick();
        if net.delivered_len(sink) == eject_cap && net.in_flight() == 0 {
            break;
        }
    }
    if net.delivered_len(sink) != eject_cap {
        return Err(format!("sink holds {} flits", net.delivered_len(sink)));
    }
    // Send the probe into the full sink: it must deflect once and
    // place an E-tag.
    net.enqueue(probe_src, sink, FlitClass::Data, 64, 42)
        .unwrap();
    for _ in 0..(4 * stations as u64) {
        net.tick();
        if net.stats().etags_placed.get() > 0 {
            break;
        }
    }
    if net.stats().etags_placed.get() != 1 {
        return Err("probe never deflected".to_string());
    }
    // Resume draining until the probe arrives.
    for _ in 0..(4 * stations as u64) {
        net.tick();
        while let Some(f) = net.pop_delivered(sink) {
            if f.token == 42 {
                return Ok(f);
            }
        }
    }
    Err("probe never delivered".to_string())
}

/// Cycles of offered overload.
pub const INJECT: u64 = 500;

/// Drain cycles after which a run that still makes progress is
/// reported as neither drained nor wedged.
pub const BUDGET: u64 = 50_000;

/// Overload `spec` with `seed`'s traffic, then [`drain`] it for up to
/// [`BUDGET`] cycles. Returns the verdict and the network's stall
/// report at that cycle; `Err` if the spec does not compile.
pub fn overload_then_drain(spec: &SocSpec, seed: u64) -> Result<(Verdict, StallReport), String> {
    let (topo, names) = spec.compile().map_err(|e| e.to_string())?;
    let mut offers = OpenLoop::new(devices_by_name(&names), TrafficPattern::Uniform, 1.0);
    let mut net = Network::new(topo, spec.network.clone());
    let mut rng = SimRng::seed_from(seed);
    for _ in 0..INJECT {
        offers.offer(&mut net, &mut rng);
        net.tick();
        offers.pop_all(&mut net);
    }
    let verdict = drain(&mut net, BUDGET, |net| {
        offers.pop_all(net);
        Ok(())
    })?;
    Ok((verdict, net.stall_report()))
}
