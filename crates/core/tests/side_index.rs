//! The event-indexed bridge layer (DESIGN.md §21): a bridge side is
//! visited only in a cycle where something is due at it, and the
//! indices that decide "due" — each ring's earliest due cycle over the
//! bridge FIFOs landing on it, and the intake / DRM-watch side sets —
//! survive everything the public API can do between ticks.
//!
//! The first half counts visits ([`TickProfile::side_visits`]
//! (noc_core::TickProfile::side_visits)): none on an idle fabric,
//! exactly two for one flit over one bridge, equal between two fresh
//! runs on a ring with more bridge sides than one set word holds, and
//! one per cycle for a flit a full
//! endpoint Inject Queue holds in the pipeline — with the resulting
//! trace stream pinned against the commit before the index existed —
//! and never more than a bridge's width taken into it in one cycle.
//! The second half pokes the indices from outside: draining a bridge
//! endpoint's Eject Queue behind the intake mark, cloning mid-run.
//! Debug builds additionally run
//! `debug_check_side_indices` and the engine's escape checks (no
//! matured flit skipped, buffer bounds, due cycles) every cycle of
//! every test here, which is what the closing proptest leans on.

mod common;

use common::{digest, fnv1a, random_topology, Rng, FNV_OFFSET};
use noc_core::spec::devices_by_name;
use noc_core::telemetry::{FlitEvent, RingBufferSink, TraceSink};
use noc_core::topogen::{GridParams, HierRingParams};
use noc_core::{
    BridgeConfig, FlitClass, Network, NetworkConfig, NodeId, RingKind, Topology, TopologyBuilder,
};
use proptest::prelude::*;

/// Two full 8-station rings joined by one bridge between stations 6,
/// devices at stations 1 and 4 of each ring.
fn two_ring(cfg: BridgeConfig) -> (Topology, Vec<NodeId>) {
    let mut b = TopologyBuilder::new();
    let d0 = b.add_chiplet("d0");
    let d1 = b.add_chiplet("d1");
    let r0 = b.add_ring(d0, RingKind::Full, 8).unwrap();
    let r1 = b.add_ring(d1, RingKind::Full, 8).unwrap();
    let mut devs = Vec::new();
    for (i, &r) in [r0, r1].iter().enumerate() {
        devs.push(b.add_node(format!("a{i}"), r, 1).unwrap());
        devs.push(b.add_node(format!("b{i}"), r, 4).unwrap());
    }
    b.add_bridge(cfg, r0, 6, r1, 6).unwrap();
    (b.build().unwrap(), devs)
}

/// A generated fabric as `(topology, devices in name order)`.
fn generated(spec: noc_core::SocSpec) -> (Topology, Vec<NodeId>) {
    let (topo, names) = spec.compile().expect("generated spec compiles");
    (topo, devices_by_name(&names))
}

/// For `cycles` cycles: offer every net the same random traffic (each
/// device enqueues with probability 1/`one_in` while `offer` holds),
/// advance each by one cycle, and require identical delivery streams.
fn lockstep<S: TraceSink>(
    nets: &mut [&mut Network<S>],
    devs: &[NodeId],
    rng: &mut Rng,
    cycles: std::ops::Range<u64>,
    one_in: u64,
    offer: bool,
) {
    for cycle in cycles {
        for si in 0..devs.len() {
            if !offer || rng.below(one_in) != 0 {
                continue;
            }
            let di = (si + 1 + rng.below(devs.len() as u64 - 1) as usize) % devs.len();
            let ok: Vec<bool> = nets
                .iter_mut()
                .map(|n| {
                    n.enqueue(devs[si], devs[di], FlitClass::Data, 64, cycle)
                        .is_ok()
                })
                .collect();
            assert!(
                ok.iter().all(|&o| o == ok[0]),
                "cycle {cycle}: enqueue diverged"
            );
        }
        for n in nets.iter_mut() {
            n.tick();
        }
        for &d in devs {
            loop {
                let pops: Vec<_> = nets.iter_mut().map(|n| n.pop_delivered(d)).collect();
                let first = pops[0].as_ref().map(digest);
                for p in &pops[1..] {
                    assert_eq!(
                        p.as_ref().map(digest),
                        first,
                        "cycle {cycle}: delivery stream diverged at {d}"
                    );
                }
                if first.is_none() {
                    break;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// The index: how many sides a cycle visits
// ---------------------------------------------------------------------

#[test]
fn an_idle_fabric_visits_no_side() {
    let (topo, _) = generated(
        GridParams::torus(8, 8)
            .with_stations(16)
            .with_devices(4)
            .generate()
            .expect("8x8 torus generates"),
    );
    assert_eq!(topo.bridges().len(), 128, "256 sides to not visit");
    let mut net = Network::new(topo, NetworkConfig::default());
    for _ in 0..1_000 {
        net.tick();
    }
    assert_eq!(net.tick_profile().side_visits, 0);
}

#[test]
fn one_flit_over_one_bridge_is_two_side_visits() {
    let (topo, devs) = two_ring(BridgeConfig::l2().with_latency(3));
    let mut net = Network::new(topo, NetworkConfig::default());
    net.enqueue(devs[0], devs[3], FlitClass::Data, 64, 1)
        .unwrap();
    let mut got = None;
    for _ in 0..64 {
        net.tick();
        got = got.or(net.pop_delivered(devs[3]));
    }
    assert_eq!(got.expect("delivered").ring_changes, 1);
    // Sending side: intake pushes the flit from the endpoint's Eject
    // Queue into the bridge FIFO (1). Receiving side, three cycles
    // later: delivery drains the matured flit (2). The other 63
    // cycles, and DRM bookkeeping in all 64, touch nothing.
    assert_eq!(net.tick_profile().side_visits, 2);
}

#[test]
fn seventy_sides_on_one_ring_stay_in_lockstep_with_the_reference_twin() {
    let (topo, devs) = generated(
        HierRingParams::new(70)
            .generate()
            .expect("70-cluster hierarchy generates"),
    );
    assert_eq!(
        topo.bridges().len(),
        70,
        "the hub ring carries 70 sides: two set words"
    );
    let cfg = NetworkConfig::default();
    // The twin is a second fresh network: any nondeterminism in the
    // side index shows as a diverged stream or visit count.
    let mut fast = Network::new(topo.clone(), cfg.clone());
    let mut reference = Network::new(topo, cfg);
    let mut rng = Rng(0x0705_1de5);
    let nets = &mut [&mut fast, &mut reference];
    lockstep(nets, &devs, &mut rng, 0..400, 6, true);
    lockstep(nets, &devs, &mut rng, 400..2_400, 6, false);
    assert_eq!(fast.in_flight(), 0, "failed to drain");
    assert_eq!(fast.fingerprint(), reference.fingerprint());
    let visits = fast.tick_profile().side_visits;
    assert!(visits > 0, "no bridge was used");
    assert_eq!(
        visits,
        reference.tick_profile().side_visits,
        "the twin runs the same bridge phases"
    );
}

/// FNV-1a over the JSONL of `records`.
fn stream_hash(records: &[noc_core::telemetry::TraceRecord]) -> u64 {
    records.iter().fold(FNV_OFFSET, |h, r| {
        let line = serde_json::to_string(r).expect("record serializes");
        fnv1a(fnv1a(h, line.as_bytes()), b"\n")
    })
}

/// The full trace stream of [`stalled_bridge_run`] as the commit before
/// the side index (8057e9b) produced it.
const STALLED_STREAM: u64 = 0x5e60_2cd4_b32c_fc82;

/// Ring 0 pushes a flit per cycle over the bridge into a half ring
/// whose one lane a local hog keeps full past the bridge's station, so
/// the receiving endpoint's two-entry Inject Queue fills and matured
/// flits wait in the pipeline.
fn stalled_bridge_run() -> (Vec<noc_core::telemetry::TraceRecord>, u64) {
    let mut b = TopologyBuilder::new();
    let d0 = b.add_chiplet("d0");
    let d1 = b.add_chiplet("d1");
    let r0 = b.add_ring(d0, RingKind::Full, 8).unwrap();
    let r1 = b.add_ring(d1, RingKind::Half, 8).unwrap();
    let src = [
        b.add_node("s0", r0, 1).unwrap(),
        b.add_node("s1", r0, 3).unwrap(),
    ];
    let hog = b.add_node("hog", r1, 2).unwrap();
    let hog_dst = b.add_node("hog_dst", r1, 6).unwrap();
    let dst = b.add_node("dst", r1, 7).unwrap();
    b.add_bridge(BridgeConfig::l2().with_latency(2), r0, 6, r1, 4)
        .unwrap();
    let cfg = NetworkConfig {
        inject_queue_cap: 2,
        ..NetworkConfig::default()
    };
    let mut net = Network::with_sink(b.build().unwrap(), cfg, RingBufferSink::new(1 << 20));
    for cycle in 0..240u64 {
        if cycle < 160 {
            let _ = net.enqueue(hog, hog_dst, FlitClass::Data, 64, cycle);
            let _ = net.enqueue(src[(cycle % 2) as usize], dst, FlitClass::Data, 64, cycle);
        }
        net.tick();
        for d in [hog_dst, dst] {
            while net.pop_delivered(d).is_some() {}
        }
    }
    let visits = net.tick_profile().side_visits;
    let sink = net.into_sink();
    assert_eq!(sink.dropped(), 0, "sink too small for an exact stream hash");
    (sink.to_vec(), visits)
}

#[test]
fn a_flit_held_by_a_full_inject_queue_is_retried_and_traced_every_cycle() {
    let (records, visits) = stalled_bridge_run();
    // Per held flit, the cycles it was reported stalled in.
    let mut stalls: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
    for r in &records {
        if matches!(r.event, FlitEvent::BridgeStalled { .. }) {
            stalls.entry(r.flit).or_default().push(r.cycle);
        }
    }
    let total: usize = stalls.values().map(Vec::len).sum();
    assert!(
        total >= 100 && stalls.len() >= 10,
        "the scenario must stall often: {total} stalls of {} flits",
        stalls.len()
    );
    for (flit, cycles) in &stalls {
        assert!(
            cycles.windows(2).all(|w| w[1] == w[0] + 1),
            "flit {flit} was not retried every cycle: {cycles:?}"
        );
    }
    assert!(
        visits >= total as u64,
        "every stalled cycle is a side visit"
    );
}

/// The stalled run's whole trace stream, against the one pinned before
/// the side index. A pin, not a rule: it catches any change to the run.
#[test]
fn the_stalled_bridge_stream_is_the_one_pinned_before_the_side_index() {
    let (records, _) = stalled_bridge_run();
    assert_eq!(
        stream_hash(&records),
        STALLED_STREAM,
        "trace stream moved against the one pinned before the side index"
    );
}

/// Two chiplets of two full rings each, the rings of a chiplet joined
/// by an RBRG-L1 and the chiplets by an RBRG-L2, under saturating
/// uniform traffic: in every cycle, each bridge direction takes at most
/// its `width_flits_per_cycle` flits from its sending ring (§4.1.3),
/// and each reaches that width at least once.
#[test]
fn a_bridge_direction_takes_at_most_its_width_per_cycle() {
    let mut b = TopologyBuilder::new();
    let mut rings = Vec::new();
    for die in 0..2 {
        let chiplet = b.add_chiplet(format!("d{die}"));
        for _ in 0..2 {
            rings.push(b.add_ring(chiplet, RingKind::Full, 16).unwrap());
        }
    }
    let mut devs = Vec::new();
    for (r, &ring) in rings.iter().enumerate() {
        for station in [2, 5, 11, 14] {
            devs.push(
                b.add_node(format!("r{r}s{station}"), ring, station)
                    .unwrap(),
            );
        }
    }
    b.add_bridge(BridgeConfig::l1(), rings[0], 8, rings[1], 8)
        .unwrap();
    b.add_bridge(BridgeConfig::l1(), rings[2], 8, rings[3], 8)
        .unwrap();
    b.add_bridge(BridgeConfig::l2(), rings[1], 0, rings[2], 0)
        .unwrap();
    let topo = b.build().unwrap();
    let widths: Vec<u32> = topo
        .bridges()
        .iter()
        .map(|b| b.config.width_flits_per_cycle)
        .collect();
    assert_eq!(widths, [1, 1, 2], "L1 and L2 widths differ");
    let mut net = Network::with_sink(topo, NetworkConfig::default(), RingBufferSink::new(1 << 20));
    let mut rng = Rng(0x0b1d_9e00);
    lockstep(&mut [&mut net], &devs, &mut rng, 0..1_500, 1, true);
    let sink = net.into_sink();
    assert_eq!(sink.dropped(), 0, "sink too small to see every intake");
    // Flits taken per (cycle, bridge, sending ring).
    let mut taken: std::collections::BTreeMap<(u64, u16, u16), u32> = Default::default();
    for r in sink.records() {
        if let FlitEvent::BridgeEnqueued { bridge } = r.event {
            *taken.entry((r.cycle, bridge, r.ring)).or_default() += 1;
        }
    }
    let mut widest = vec![0u32; widths.len()];
    for (&(cycle, bridge, ring), &n) in &taken {
        let width = widths[bridge as usize];
        assert!(
            n <= width,
            "cycle {cycle}: bridge {bridge} took {n} flits from ring {ring}, width {width}"
        );
        widest[bridge as usize] = widest[bridge as usize].max(n);
    }
    assert_eq!(widest, widths, "the load fills every bridge to its width");
}

// ---------------------------------------------------------------------
// The indices against the public API
// ---------------------------------------------------------------------

#[test]
fn draining_a_bridge_endpoint_behind_the_intake_mark_leaves_one_silent_visit() {
    // A one-flit pipeline with a long latency: the first flit fills it,
    // the second waits in the endpoint's Eject Queue, marked.
    let (topo, devs) = two_ring(BridgeConfig::l2().with_latency(40).with_buffer_cap(1));
    let endpoint = topo.bridges()[0].a;
    let mut net = Network::with_sink(topo, NetworkConfig::default(), RingBufferSink::new(1 << 12));
    for token in 0..2 {
        net.enqueue(devs[0], devs[3], FlitClass::Data, 64, token)
            .unwrap();
    }
    while net.delivered_len(endpoint) == 0 {
        assert!(net.now().raw() < 30, "second flit never reached the bridge");
        net.tick();
    }
    // The public API lets a caller take it from there; the mark is now
    // stale. (Skip to just past a ring-utilization sample so that the
    // cycles below emit nothing on their own account.)
    while !net.now().raw().is_multiple_of(8) {
        net.tick();
    }
    assert_eq!(net.pop_delivered(endpoint).map(|f| f.token), Some(1));
    let quiet = |net: &Network<RingBufferSink>| {
        (
            net.fingerprint(),
            net.sink().to_vec().len(),
            net.tick_profile().side_visits,
        )
    };
    let (fp, records, visits) = quiet(&net);
    net.tick();
    assert_eq!(
        quiet(&net),
        (fp.clone(), records, visits + 1),
        "the stale mark costs one visit that changes and traces nothing"
    );
    for _ in 0..4 {
        net.tick();
    }
    assert_eq!(
        quiet(&net),
        (fp, records, visits + 1),
        "and then it is gone"
    );
    // The flit already in the pipeline is unaffected.
    let mut got = None;
    for _ in 0..80 {
        net.tick();
        got = got.or(net.pop_delivered(devs[3]));
    }
    assert_eq!(got.map(|f| f.token), Some(0));
}

/// A zero deadlock threshold is met before the endpoint ever loses an
/// arbitration — the one DRM-watch wake-up no `starve += 1` announces.
/// The entry count is the one the every-side walk produced (8057e9b).
#[test]
fn a_zero_deadlock_threshold_needs_no_lost_arbitration_to_enter_drm() {
    let (topo, devs) = two_ring(BridgeConfig::l2().with_deadlock_threshold(0));
    let mut net = Network::new(topo, NetworkConfig::default());
    let mut rng = Rng(0x0d12_0000);
    lockstep(&mut [&mut net], &devs, &mut rng, 0..300, 2, true);
    assert_eq!(net.stats().drm_entries.get(), 2);
}

#[test]
fn a_clone_taken_mid_run_continues_like_the_original() {
    let (topo, devs) = generated(
        GridParams::torus(3, 3)
            .with_stations(10)
            .with_devices(2)
            .generate()
            .expect("3x3 torus generates"),
    );
    let mut net = Network::new(topo, NetworkConfig::default());
    let mut rng = Rng(0x00c1_04e0);
    lockstep(&mut [&mut net], &devs, &mut rng, 0..200, 3, true);
    assert!(
        net.in_flight() > 0,
        "clone must catch mail in the pipelines"
    );
    let mut copy = net.clone();
    lockstep(
        &mut [&mut net, &mut copy],
        &devs,
        &mut rng,
        200..400,
        3,
        true,
    );
    lockstep(
        &mut [&mut net, &mut copy],
        &devs,
        &mut rng,
        400..2_400,
        3,
        false,
    );
    assert_eq!(net.in_flight(), 0, "failed to drain");
    assert_eq!(net.fingerprint(), copy.fingerprint());
    assert_eq!(net.tick_profile(), copy.tick_profile());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any random fabric, load and epoch length matches the per-cycle
    /// engine — and in a build with debug
    /// assertions every cycle of both has walked every side against its
    /// indices, so a missed wake-up fails there, at the cycle it
    /// happens, before it can show as a diverged stream here.
    #[test]
    fn side_indices_hold_on_random_fabrics(
        seed in any::<u64>(),
        one_in in 1u64..6,
        long_epochs in any::<bool>(),
    ) {
        let mut rng = Rng(seed);
        let (topo, devs) = random_topology(&mut rng);
        let cfg = NetworkConfig::default();
        let mut base = Network::new(topo.clone(), cfg.clone());
        let mut net = Network::new(topo, cfg);
        let k = if long_epochs { net.max_epoch() } else { 1 };
        let mut streams = [Vec::new(), Vec::new()];
        for step in 0..2_400 / k {
            if step * k < 240 {
                for si in 0..devs.len() {
                    if rng.below(one_in) != 0 {
                        continue;
                    }
                    let di = (si + 1 + rng.below(devs.len() as u64 - 1) as usize) % devs.len();
                    let a = base.enqueue(devs[si], devs[di], FlitClass::Data, 64, step).is_ok();
                    let b = net.enqueue(devs[si], devs[di], FlitClass::Data, 64, step).is_ok();
                    prop_assert_eq!(a, b, "step {}: enqueue diverged", step);
                }
            }
            for _ in 0..k {
                base.tick();
            }
            net.tick_epoch(k).expect("k bounded by max_epoch");
            for &d in &devs {
                while let Some(f) = base.pop_delivered(d) {
                    streams[0].push(digest(&f));
                }
                while let Some(f) = net.pop_delivered(d) {
                    streams[1].push(digest(&f));
                }
            }
        }
        prop_assert!(base.stats().delivered.get() > 0, "nothing was delivered");
        prop_assert_eq!(&streams[0], &streams[1], "delivery streams diverged (k={})", k);
        prop_assert_eq!(base.fingerprint(), net.fingerprint());
        prop_assert_eq!(base.tick_profile().side_visits, net.tick_profile().side_visits);
    }
}
