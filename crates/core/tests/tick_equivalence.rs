//! The event-indexed tick on randomized topologies and traffic.
//!
//! The tick visits only the stations its indices name: each lane's exit
//! calendar and I-tag words, and the cached head intents. In debug
//! builds every cycle checks those indices against the slots and the
//! route table (see `noc_core::network`), so a wrong calendar bit or a
//! stale intent fails at the cycle it appears; every seed here is a run
//! of that check, and the reference it matches is the route table.
//!
//! Each seed builds one random multi-ring topology (mixed half/full
//! rings, L1 and L2 bridges across two chiplets), then drives a traced
//! and an untraced network through the same enqueue and drain schedule,
//! comparing every popped flit and the final stats: tracing must not
//! change what the fabric does.

mod common;

use common::{digest, random_topology, Rng};
use noc_core::spec::devices_by_name;
use noc_core::telemetry::RingBufferSink;
use noc_core::topogen::GridParams;
use noc_core::{
    BridgeConfig, FlitClass, Network, NetworkConfig, NodeId, RingKind, Topology, TopologyBuilder,
};

fn run_seed(seed: u64) {
    let mut rng = Rng(seed.wrapping_mul(0x5851_f42d_4c95_7f2d) ^ 0xa076_1d64_78bd_642f);
    let (topo, devices) = random_topology(&mut rng);
    run_pair(seed, &mut rng, topo, devices);
}

/// Two bridged rings of the given kinds and sizes with `ndev` devices
/// scattered over each (two to a station where the draw collides, so
/// the zero-hop path is exercised too).
fn two_ring_topology(
    rng: &mut Rng,
    rings: [(RingKind, u16); 2],
    ndev: usize,
) -> (Topology, Vec<NodeId>) {
    let mut b = TopologyBuilder::new();
    let die = b.add_chiplet("die");
    let ids = rings.map(|(kind, n)| b.add_ring(die, kind, n).expect("ring"));
    // Bridge first, at station 0 of both, so it is never crowded out.
    let cfg = BridgeConfig::l2()
        .with_latency(1 + rng.below(4) as u32)
        .with_deadlock_threshold(24 + rng.below(64) as u32);
    b.add_bridge(cfg, ids[0], 0, ids[1], 0).expect("bridge");
    let mut devices = Vec::new();
    for (i, &(_, n)) in rings.iter().enumerate() {
        for d in 0..ndev {
            let s = 1 + rng.below(u64::from(n) - 1) as u16;
            if let Ok(id) = b.add_node(format!("dev{i}_{d}"), ids[i], s) {
                devices.push(id);
            }
        }
    }
    (b.build().expect("valid topology"), devices)
}

/// Drive a traced and an untraced network over `topo` through one
/// random enqueue/drain schedule and hold them to identical delivery
/// streams and fingerprints (the sink is small: its counts are exact,
/// its records may drop). In debug builds every cycle of both also
/// checks the tick's indices against the route table.
fn run_pair(seed: u64, rng: &mut Rng, topo: Topology, devices: Vec<NodeId>) {
    assert!(devices.len() >= 2, "seed {seed}: too few devices");
    let cfg = NetworkConfig {
        inject_queue_cap: 2 + rng.below(7) as usize,
        eject_queue_cap: 1 + rng.below(4) as usize,
        itag_threshold: 4 + rng.below(12) as u32,
    };
    let mut traced = Network::with_sink(topo.clone(), cfg.clone(), RingBufferSink::new(256));
    let mut plain = Network::new(topo, cfg);

    let cycles = 200 + rng.below(100);
    let drain_period = 1 + rng.below(4);
    let send_die = 1 + rng.below(3); // enqueue with probability 1/(1+send_die)
    let mut token = 0u64;
    for cycle in 0..cycles + 2_000 {
        // Traffic phase only for the first `cycles`; afterwards drain.
        if cycle < cycles {
            for si in 0..devices.len() {
                if rng.below(1 + send_die) != 0 {
                    continue;
                }
                let di = (si + 1 + rng.below(devices.len() as u64 - 1) as usize) % devices.len();
                let class = match rng.below(4) {
                    0 => FlitClass::Request,
                    1 => FlitClass::Response,
                    2 => FlitClass::Snoop,
                    _ => FlitClass::Data,
                };
                let bytes = [32u32, 64][rng.below(2) as usize];
                token += 1;
                let a = traced.enqueue(devices[si], devices[di], class, bytes, token);
                let b = plain.enqueue(devices[si], devices[di], class, bytes, token);
                assert_eq!(
                    a.is_ok(),
                    b.is_ok(),
                    "seed {seed} cycle {cycle}: enqueue outcome diverged"
                );
            }
        }
        traced.tick();
        plain.tick();
        if cycle % drain_period == 0 || cycle >= cycles {
            for &d in &devices {
                loop {
                    let a = traced.pop_delivered(d);
                    let b = plain.pop_delivered(d);
                    match (&a, &b) {
                        (None, None) => break,
                        (Some(fa), Some(fb)) => assert_eq!(
                            digest(fa),
                            digest(fb),
                            "seed {seed} cycle {cycle}: delivery stream diverged at {d:?}"
                        ),
                        _ => panic!(
                            "seed {seed} cycle {cycle}: delivery presence diverged at \
                             {d:?}: traced={a:?} untraced={b:?}"
                        ),
                    }
                }
            }
        }
        if cycle >= cycles && traced.in_flight() == 0 && plain.in_flight() == 0 {
            break;
        }
    }
    assert_eq!(
        traced.stats().fingerprint(),
        plain.stats().fingerprint(),
        "seed {seed}: stats fingerprints diverged"
    );
    assert_eq!(
        traced.in_flight(),
        plain.in_flight(),
        "seed {seed}: in-flight counts diverged"
    );
    assert_eq!(
        traced.count_resident_flits(),
        plain.count_resident_flits(),
        "seed {seed}: resident flit counts diverged"
    );
    assert_eq!(
        traced.sink().counts().delivered,
        traced.stats().delivered.get(),
        "seed {seed}: the sink missed deliveries"
    );
    // The traffic phase must actually have produced deliveries for this
    // to be a meaningful comparison.
    assert!(
        traced.stats().delivered.get() > 0,
        "seed {seed}: nothing was delivered"
    );
}

#[test]
fn fast_tick_matches_reference_on_120_random_seeds() {
    for seed in 0..120 {
        run_seed(seed);
    }
}

/// Half rings only: one lane, every flit travels clockwise, a head
/// never wants lane 1.
#[test]
fn fast_tick_matches_reference_on_half_rings() {
    for seed in 0..8 {
        let mut rng = Rng(seed ^ 0x6a09_e667_f3bc_c908);
        let rings = [(RingKind::Half, 12), (RingKind::Half, 9)];
        let (topo, devices) = two_ring_topology(&mut rng, rings, 6);
        run_pair(seed, &mut rng, topo, devices);
    }
}

/// Rings past 64 stations: calendar rows and intent bitsets span more
/// than one word (130 stations = three, 70 = two).
#[test]
fn fast_tick_matches_reference_on_multi_word_rings() {
    for seed in 0..8 {
        let mut rng = Rng(seed ^ 0xbb67_ae85_84ca_a73b);
        let rings = [(RingKind::Full, 130), (RingKind::Half, 70)];
        let (topo, devices) = two_ring_topology(&mut rng, rings, 40);
        run_pair(seed, &mut rng, topo, devices);
    }
}

/// Three-way differential: two traced networks, one whose sink holds
/// every record and one whose sink drops most of them, and one with no
/// sink must agree flit for flit. All three share one enqueue/drain
/// schedule.
///
/// Checked per seed: per-drain delivery streams (order included), final
/// stats fingerprints, and telemetry event *counts* between the two
/// traced networks — so neither tracing nor a full sink changes what
/// the fabric does.
fn run_seed_3way(seed: u64) {
    let mut rng = Rng(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0x9e6c_63d0_876a_68ee);
    let (topo, devices) = random_topology(&mut rng);
    assert!(devices.len() >= 2, "seed {seed}: too few devices");
    let cfg = NetworkConfig {
        inject_queue_cap: 2 + rng.below(7) as usize,
        eject_queue_cap: 1 + rng.below(4) as usize,
        itag_threshold: 4 + rng.below(12) as u32,
    };
    let mut nets = [1 << 20, 64]
        .map(|cap| Network::with_sink(topo.clone(), cfg.clone(), RingBufferSink::new(cap)));
    let mut plain = Network::new(topo, cfg);

    let cycles = 200 + rng.below(100);
    let drain_period = 1 + rng.below(4);
    let send_die = 1 + rng.below(3);
    let mut token = 0u64;
    for cycle in 0..cycles + 2_000 {
        if cycle < cycles {
            for si in 0..devices.len() {
                if rng.below(1 + send_die) != 0 {
                    continue;
                }
                let di = (si + 1 + rng.below(devices.len() as u64 - 1) as usize) % devices.len();
                let class = match rng.below(4) {
                    0 => FlitClass::Request,
                    1 => FlitClass::Response,
                    2 => FlitClass::Snoop,
                    _ => FlitClass::Data,
                };
                let bytes = [32u32, 64][rng.below(2) as usize];
                token += 1;
                let [a, b] = nets.each_mut().map(|n| {
                    n.enqueue(devices[si], devices[di], class, bytes, token)
                        .is_ok()
                });
                let c = plain
                    .enqueue(devices[si], devices[di], class, bytes, token)
                    .is_ok();
                assert!(
                    a == b && b == c,
                    "seed {seed} cycle {cycle}: enqueue outcome diverged {:?}",
                    [a, b, c]
                );
            }
        }
        for n in nets.iter_mut() {
            n.tick();
        }
        plain.tick();
        if cycle % drain_period == 0 || cycle >= cycles {
            for &d in &devices {
                loop {
                    let [p0, p1] = nets.each_mut().map(|n| n.pop_delivered(d));
                    let p2 = plain.pop_delivered(d);
                    match &p0 {
                        None => {
                            assert!(
                                p1.is_none() && p2.is_none(),
                                "seed {seed} cycle {cycle}: delivery presence diverged at \
                                 {d:?}: {:?}",
                                [p1, p2]
                            );
                            break;
                        }
                        Some(f0) => {
                            for (name, f) in [("dropping", &p1), ("untraced", &p2)] {
                                let f = f.as_ref().unwrap_or_else(|| {
                                    panic!(
                                        "seed {seed} cycle {cycle}: {name} missed a delivery \
                                         at {d:?}"
                                    )
                                });
                                assert_eq!(
                                    digest(f0),
                                    digest(f),
                                    "seed {seed} cycle {cycle}: {name} delivery stream \
                                     diverged at {d:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
        if cycle >= cycles && nets.iter().all(|n| n.in_flight() == 0) {
            break;
        }
    }

    let fp = [
        &nets[0].fingerprint(),
        &nets[1].fingerprint(),
        &plain.fingerprint(),
    ];
    assert!(
        fp[0] == fp[1] && fp[1] == fp[2],
        "seed {seed}: stats fingerprints diverged {fp:?}"
    );
    let counts = nets.each_ref().map(|n| *n.sink().counts());
    assert_eq!(
        counts[0], counts[1],
        "seed {seed}: event counts depend on the sink's capacity"
    );
    assert!(
        nets[0].sink().dropped() == 0 && nets[1].sink().dropped() > 0,
        "seed {seed}: the sinks must differ in what they drop"
    );
    assert!(
        plain.stats().delivered.get() > 0,
        "seed {seed}: nothing was delivered"
    );
}

#[test]
fn three_way_differential_fuzz_on_60_seeds() {
    for seed in 0..60 {
        run_seed_3way(seed);
    }
}

/// Generated-topology fuzz: one seed samples grid/torus generator
/// parameters, builds the fabric through [`GridParams`], and drives two
/// fresh networks through one schedule. The fabric must drain and the
/// two runs must be byte-identical.
fn run_generated_seed(seed: u64) {
    let mut rng = Rng(seed.wrapping_mul(0x9e6c_63d0_876a_68ee) ^ 0x53a9_1d6c_40f1_72b3);
    let rows = 1 + rng.below(4) as u16;
    let cols = 1 + rng.below(4) as u16;
    let stations = 6 + rng.below(6) as u16;
    let devices_per_chiplet = 1 + rng.below(3) as u16;
    let base = if rng.below(2) == 1 {
        GridParams::torus(rows, cols)
    } else {
        GridParams::grid(rows, cols)
    };
    let params = base
        .with_stations(stations)
        .with_devices(devices_per_chiplet)
        .with_kind(if rng.below(2) == 1 {
            RingKind::Half
        } else {
            RingKind::Full
        })
        .with_seed(seed);
    let spec = params.generate().expect("sampled params are valid");
    let (topo, names) = spec.compile().expect("generated spec compiles");
    let devices = devices_by_name(&names);
    if devices.len() < 2 {
        return; // single-device 1×1 sample: nothing to send
    }
    let cfg = NetworkConfig {
        inject_queue_cap: 2 + rng.below(7) as usize,
        eject_queue_cap: 1 + rng.below(4) as usize,
        itag_threshold: 4 + rng.below(12) as u32,
    };
    let mut nets: Vec<Network> = (0..2)
        .map(|_| Network::new(topo.clone(), cfg.clone()))
        .collect();

    let cycles = 120 + rng.below(80);
    let send_die = 1 + rng.below(3);
    let mut token = 0u64;
    for cycle in 0..cycles + 20_000 {
        if cycle < cycles {
            for si in 0..devices.len() {
                if rng.below(1 + send_die) != 0 {
                    continue;
                }
                let di = (si + 1 + rng.below(devices.len() as u64 - 1) as usize) % devices.len();
                token += 1;
                let first = nets[0]
                    .enqueue(devices[si], devices[di], FlitClass::Data, 64, token)
                    .is_ok();
                for n in nets.iter_mut().skip(1) {
                    let ok = n
                        .enqueue(devices[si], devices[di], FlitClass::Data, 64, token)
                        .is_ok();
                    assert_eq!(ok, first, "seed {seed} cycle {cycle}: enqueue diverged");
                }
            }
        }
        for n in nets.iter_mut() {
            n.tick();
        }
        for &d in &devices {
            loop {
                let mut pops = nets.iter_mut().map(|n| n.pop_delivered(d));
                let first = pops.next().unwrap();
                let rest: Vec<_> = pops.collect();
                match first {
                    None => {
                        assert!(
                            rest.iter().all(|p| p.is_none()),
                            "seed {seed} cycle {cycle}: delivery presence diverged at {d:?}"
                        );
                        break;
                    }
                    Some(f0) => {
                        for f in &rest {
                            let f = f.as_ref().unwrap_or_else(|| {
                                panic!("seed {seed} cycle {cycle}: missed delivery at {d:?}")
                            });
                            assert_eq!(
                                digest(&f0),
                                digest(f),
                                "seed {seed} cycle {cycle}: delivery stream diverged at {d:?}"
                            );
                        }
                    }
                }
            }
        }
        if cycle >= cycles && nets.iter().all(|n| n.in_flight() == 0) {
            break;
        }
    }
    assert!(
        nets.iter().all(|n| n.in_flight() == 0),
        "seed {seed}: generated fabric failed to drain"
    );
    let base_fp = nets[0].fingerprint();
    for (i, n) in nets.iter().enumerate().skip(1) {
        assert_eq!(
            n.fingerprint(),
            base_fp,
            "seed {seed}: fingerprint diverged for run {i} on {rows}x{cols} fabric"
        );
    }
    assert!(
        nets[0].stats().delivered.get() > 0,
        "seed {seed}: nothing was delivered"
    );
}

#[test]
fn generated_fabrics_fingerprint_identical_across_engine_matrix_24_seeds() {
    for seed in 0..24 {
        run_generated_seed(seed);
    }
}

#[test]
fn fast_tick_skips_stations_at_low_occupancy() {
    // Sanity-check the index actually skips work (the whole point):
    // a mostly idle 64-station ring must visit far fewer stations than
    // a full sweep would.
    let mut b = TopologyBuilder::new();
    let die = b.add_chiplet("die");
    let r = b.add_ring(die, RingKind::Full, 64).unwrap();
    let a = b.add_node("a", r, 0).unwrap();
    let z = b.add_node("z", r, 32).unwrap();
    let mut net = Network::new(b.build().unwrap(), NetworkConfig::default());
    net.enqueue(a, z, FlitClass::Data, 64, 0).unwrap();
    for _ in 0..200 {
        net.tick();
        while net.pop_delivered(z).is_some() {}
    }
    let p = net.tick_profile();
    assert_eq!(p.stations_total, 200 * 2 * 64);
    assert!(
        p.stations_visited < p.stations_total / 10,
        "visited {} of {} stations — occupancy index is not skipping",
        p.stations_visited,
        p.stations_total
    );
    assert_eq!(p.full_lane_sweeps, 0);
    assert!(p.skip_fraction() > 0.9);
}

/// 64-station full ring with a device on every station.
fn ring64() -> (Network, Vec<NodeId>) {
    let mut b = TopologyBuilder::new();
    let die = b.add_chiplet("die");
    let r = b.add_ring(die, RingKind::Full, 64).expect("ring");
    let eps = (0..64)
        .map(|i| b.add_node(format!("n{i}"), r, i).expect("node"))
        .collect();
    let net = Network::new(b.build().expect("valid"), NetworkConfig::default());
    (net, eps)
}

#[test]
fn saturated_clockwise_load_skips_exactly_the_idle_lane() {
    // Every station enqueues every cycle to a destination 21–33 stations
    // clockwise, so every head wants lane 0 and lane 1 stays idle: the
    // fast path visits exactly half the station slots.
    let (mut net, eps) = ring64();
    for c in 0..1_000u64 {
        for (i, &s) in eps.iter().enumerate() {
            let d = eps[(i + 21 + (c as usize % 13)) % 64];
            let _ = net.enqueue(s, d, FlitClass::Data, 64, c);
        }
        net.tick();
        for &e in &eps {
            while net.pop_delivered(e).is_some() {}
        }
    }
    assert_eq!(net.tick_profile().skip_fraction(), 0.5);
}
