//! Differential oracle: the event-indexed fast tick
//! (`TickMode::Fast`) must be cycle-exact against the golden-model full
//! sweep (`TickMode::Reference`) — identical delivery streams, identical
//! stats fingerprints — on randomized topologies and traffic.
//!
//! Each seed builds one random multi-ring topology (mixed half/full
//! rings, L1 and L2 bridges across two chiplets), then drives two
//! networks that differ only in tick mode through the same enqueue and
//! drain schedule, comparing every popped flit and the final stats.

mod common;

use common::{digest, random_topology, Rng};
use noc_core::telemetry::{NullSink, RingBufferSink};
use noc_core::topogen::GridParams;
use noc_core::{
    BridgeConfig, ExecMode, FlitClass, Network, NetworkConfig, NodeId, RingKind, TickMode,
    Topology, TopologyBuilder,
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

/// Drive a `Fast` and a `Reference` network over `topo` through one
/// random enqueue/drain schedule and hold them to identical delivery
/// streams and fingerprints. In debug builds the reference sweeps also
/// assert, at every station every cycle, that the exit calendar and the
/// head-intent cache it maintains (but never reads) tell the truth.
fn run_pair(seed: u64, rng: &mut Rng, topo: Topology, devices: Vec<NodeId>) {
    assert!(devices.len() >= 2, "seed {seed}: too few devices");
    let cfg = NetworkConfig {
        inject_queue_cap: 2 + rng.below(7) as usize,
        eject_queue_cap: 1 + rng.below(4) as usize,
        itag_threshold: 4 + rng.below(12) as u32,
        ..NetworkConfig::default()
    };
    let mut fast = Network::with_mode(topo.clone(), cfg.clone(), TickMode::Fast);
    let mut reference = Network::with_mode(topo, cfg, TickMode::Reference);

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
                let a = fast.enqueue(devices[si], devices[di], class, bytes, token);
                let b = reference.enqueue(devices[si], devices[di], class, bytes, token);
                assert_eq!(
                    a.is_ok(),
                    b.is_ok(),
                    "seed {seed} cycle {cycle}: enqueue outcome diverged"
                );
            }
        }
        fast.tick();
        reference.tick();
        if cycle % drain_period == 0 || cycle >= cycles {
            for &d in &devices {
                loop {
                    let a = fast.pop_delivered(d);
                    let b = reference.pop_delivered(d);
                    match (&a, &b) {
                        (None, None) => break,
                        (Some(fa), Some(fb)) => assert_eq!(
                            digest(fa),
                            digest(fb),
                            "seed {seed} cycle {cycle}: delivery stream diverged at {d:?}"
                        ),
                        _ => panic!(
                            "seed {seed} cycle {cycle}: delivery presence diverged at \
                             {d:?}: fast={a:?} reference={b:?}"
                        ),
                    }
                }
            }
        }
        if cycle >= cycles && fast.in_flight() == 0 && reference.in_flight() == 0 {
            break;
        }
    }
    assert_eq!(
        fast.stats().fingerprint(),
        reference.stats().fingerprint(),
        "seed {seed}: stats fingerprints diverged"
    );
    assert_eq!(
        fast.in_flight(),
        reference.in_flight(),
        "seed {seed}: in-flight counts diverged"
    );
    assert_eq!(
        fast.count_resident_flits(),
        reference.count_resident_flits(),
        "seed {seed}: resident flit counts diverged"
    );
    // The traffic phase must actually have produced deliveries for this
    // to be a meaningful comparison.
    assert!(
        fast.stats().delivered.get() > 0,
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

/// Three-way differential: the golden-model sweep, the event-indexed
/// fast tick and the sharded parallel engine must agree flit for flit.
/// All three networks share one enqueue/drain schedule; the parallel
/// engine's thread count rotates through {1, 2, 4, 8} across seeds.
///
/// Checked per seed: per-drain delivery streams (order included), final
/// stats fingerprints, telemetry event *counts* across all three, and
/// full telemetry record-stream equality between the sequential and
/// parallel fast engines (the tentpole determinism guarantee).
fn run_seed_3way(seed: u64) {
    let mut rng = Rng(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0x9e6c_63d0_876a_68ee);
    let (topo, devices) = random_topology(&mut rng);
    assert!(devices.len() >= 2, "seed {seed}: too few devices");
    let cfg = NetworkConfig {
        inject_queue_cap: 2 + rng.below(7) as usize,
        eject_queue_cap: 1 + rng.below(4) as usize,
        itag_threshold: 4 + rng.below(12) as u32,
        ..NetworkConfig::default()
    };
    let threads = [1usize, 2, 4, 8][(seed % 4) as usize];
    let sink = || RingBufferSink::new(1 << 20);
    let mut nets = [
        Network::with_exec(
            topo.clone(),
            cfg.clone(),
            TickMode::Reference,
            ExecMode::Sequential,
            sink(),
        ),
        Network::with_exec(
            topo.clone(),
            cfg.clone(),
            TickMode::Fast,
            ExecMode::Sequential,
            sink(),
        ),
        Network::with_exec(
            topo,
            cfg,
            TickMode::Fast,
            ExecMode::Parallel(threads),
            sink(),
        ),
    ];

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
                let outcomes = nets.each_mut().map(|n| {
                    n.enqueue(devices[si], devices[di], class, bytes, token)
                        .is_ok()
                });
                assert!(
                    outcomes[0] == outcomes[1] && outcomes[1] == outcomes[2],
                    "seed {seed} cycle {cycle}: enqueue outcome diverged {outcomes:?}"
                );
            }
        }
        for n in nets.iter_mut() {
            n.tick();
        }
        if cycle % drain_period == 0 || cycle >= cycles {
            for &d in &devices {
                loop {
                    let pops = nets.each_mut().map(|n| n.pop_delivered(d));
                    match &pops[0] {
                        None => {
                            assert!(
                                pops[1].is_none() && pops[2].is_none(),
                                "seed {seed} cycle {cycle} ({threads} threads): delivery \
                                 presence diverged at {d:?}: {pops:?}"
                            );
                            break;
                        }
                        Some(f0) => {
                            for (name, f) in [("fast", &pops[1]), ("parallel", &pops[2])] {
                                let f = f.as_ref().unwrap_or_else(|| {
                                    panic!(
                                        "seed {seed} cycle {cycle} ({threads} threads): \
                                         {name} missed a delivery at {d:?}"
                                    )
                                });
                                assert_eq!(
                                    digest(f0),
                                    digest(f),
                                    "seed {seed} cycle {cycle} ({threads} threads): \
                                     {name} delivery stream diverged at {d:?}"
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

    let fp = nets.each_ref().map(|n| n.stats().fingerprint());
    assert!(
        fp[0] == fp[1] && fp[1] == fp[2],
        "seed {seed} ({threads} threads): stats fingerprints diverged {fp:?}"
    );
    let counts = nets.each_ref().map(|n| *n.sink().counts());
    assert_eq!(
        counts[0], counts[1],
        "seed {seed}: reference vs fast event counts diverged"
    );
    assert_eq!(
        counts[1], counts[2],
        "seed {seed} ({threads} threads): fast vs parallel event counts diverged"
    );
    assert!(
        nets[1].sink().dropped() == 0 && nets[2].sink().dropped() == 0,
        "seed {seed}: sink capacity too small for exact stream comparison"
    );
    assert!(
        nets[1].sink().to_vec() == nets[2].sink().to_vec(),
        "seed {seed} ({threads} threads): fast vs parallel telemetry record streams diverged"
    );
    assert!(
        nets[1].stats().delivered.get() > 0,
        "seed {seed}: nothing was delivered"
    );
}

#[test]
fn three_way_differential_fuzz_on_60_seeds() {
    for seed in 0..60 {
        run_seed_3way(seed);
    }
}

#[test]
fn parallel_engine_is_bit_identical_at_every_thread_count() {
    // One fixed topology and schedule, run once sequentially and once
    // per thread count: every run must produce the same fingerprint and
    // the same telemetry record stream, bit for bit.
    let run = |exec: ExecMode| {
        let mut rng = Rng(0xba5e_ba11 ^ 0x5bd1_e995);
        let (topo, devices) = random_topology(&mut rng);
        let cfg = NetworkConfig::default();
        let mut net = Network::with_exec(
            topo,
            cfg,
            TickMode::Fast,
            exec,
            RingBufferSink::new(1 << 20),
        );
        let mut token = 0u64;
        for cycle in 0..600 {
            if cycle < 300 {
                for si in 0..devices.len() {
                    let di = (si + 1) % devices.len();
                    token += 1;
                    let _ = net.enqueue(devices[si], devices[di], FlitClass::Data, 64, token);
                }
            }
            net.tick();
            for &d in &devices {
                while net.pop_delivered(d).is_some() {}
            }
        }
        assert_eq!(net.exec_mode(), exec);
        (net.stats().fingerprint(), net.into_sink().to_vec())
    };
    let (base_fp, base_trace) = run(ExecMode::Sequential);
    assert!(!base_trace.is_empty());
    for n in [1, 2, 4, 8] {
        let (fp, trace) = run(ExecMode::Parallel(n));
        assert_eq!(fp, base_fp, "{n}-thread fingerprint diverged");
        assert!(trace == base_trace, "{n}-thread telemetry diverged");
    }
}

/// Generated-topology differential fuzz: one seed samples grid/torus
/// generator parameters, builds the fabric through [`GridParams`], and
/// drives the full {Reference, Fast} × {Sequential, Parallel(2),
/// Parallel(4)} engine matrix through one schedule. All six
/// fingerprints must be byte-identical.
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
    let mut named: Vec<(String, NodeId)> = names.into_iter().collect();
    named.sort();
    let devices: Vec<NodeId> = named.into_iter().map(|(_, id)| id).collect();
    if devices.len() < 2 {
        return; // single-device 1×1 sample: nothing to send
    }
    let cfg = NetworkConfig {
        inject_queue_cap: 2 + rng.below(7) as usize,
        eject_queue_cap: 1 + rng.below(4) as usize,
        itag_threshold: 4 + rng.below(12) as u32,
        ..NetworkConfig::default()
    };
    let mut nets: Vec<Network> = [TickMode::Reference, TickMode::Fast]
        .into_iter()
        .flat_map(|mode| {
            [
                ExecMode::Sequential,
                ExecMode::Parallel(2),
                ExecMode::Parallel(4),
            ]
            .into_iter()
            .map(move |exec| (mode, exec))
        })
        .map(|(mode, exec)| Network::with_exec(topo.clone(), cfg.clone(), mode, exec, NullSink))
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
            "seed {seed}: fingerprint diverged for engine {i} on {rows}x{cols} fabric"
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

/// Epoch axis over the random-topology fuzz: with traffic and drains
/// applied only at epoch-aligned cycles, `tick_epoch(k)` at the
/// topology's largest legal K ≤ 4 must match the per-cycle tick bit
/// for bit — delivery streams, fingerprints and the full telemetry
/// record stream — across Sequential and Parallel(2/4) epoch engines.
#[test]
fn epoch_batched_engine_matches_per_cycle_tick_across_exec_modes() {
    let mut deep_epochs = 0u32;
    for seed in 0..8u64 {
        let mut rng = Rng(seed.wrapping_mul(0x6c62_272e_07bb_0142) ^ 0x27d4_eb2f_1656_67c5);
        let (topo, devices) = random_topology(&mut rng);
        let cfg = NetworkConfig::default();
        let sink = || RingBufferSink::new(1 << 20);
        let mut nets = [
            Network::with_exec(
                topo.clone(),
                cfg.clone(),
                TickMode::Fast,
                ExecMode::Sequential,
                sink(),
            ),
            Network::with_exec(
                topo.clone(),
                cfg.clone(),
                TickMode::Fast,
                ExecMode::Sequential,
                sink(),
            ),
            Network::with_exec(
                topo.clone(),
                cfg.clone(),
                TickMode::Fast,
                ExecMode::Parallel(2),
                sink(),
            ),
            Network::with_exec(topo, cfg, TickMode::Fast, ExecMode::Parallel(4), sink()),
        ];
        let k = nets[0].max_epoch().min(4);
        deep_epochs += u32::from(k > 1);

        let steps = 60 + rng.below(30);
        let mut token = 0u64;
        for step in 0..steps + 2_000 {
            if step < steps {
                for si in 0..devices.len() {
                    if rng.below(3) != 0 {
                        continue;
                    }
                    let di =
                        (si + 1 + rng.below(devices.len() as u64 - 1) as usize) % devices.len();
                    token += 1;
                    let ok = nets.each_mut().map(|n| {
                        n.enqueue(devices[si], devices[di], FlitClass::Data, 64, token)
                            .is_ok()
                    });
                    assert!(
                        ok.iter().all(|&o| o == ok[0]),
                        "seed {seed} step {step}: enqueue outcome diverged {ok:?}"
                    );
                }
            }
            for _ in 0..k {
                nets[0].tick();
            }
            for n in nets.iter_mut().skip(1) {
                n.tick_epoch(k).expect("k bounded by max_epoch");
            }
            for &d in &devices {
                loop {
                    let pops = nets.each_mut().map(|n| n.pop_delivered(d));
                    match &pops[0] {
                        None => {
                            assert!(
                                pops.iter().all(|p| p.is_none()),
                                "seed {seed} step {step} (k={k}): presence diverged at {d:?}"
                            );
                            break;
                        }
                        Some(f0) => {
                            for f in &pops[1..] {
                                let f = f.as_ref().unwrap_or_else(|| {
                                    panic!("seed {seed} step {step} (k={k}): missed delivery")
                                });
                                assert_eq!(
                                    digest(f0),
                                    digest(f),
                                    "seed {seed} step {step} (k={k}): stream diverged at {d:?}"
                                );
                            }
                        }
                    }
                }
            }
            if step >= steps && nets.iter().all(|n| n.in_flight() == 0) {
                break;
            }
        }
        let fp = nets.each_ref().map(|n| n.stats().fingerprint());
        assert!(
            fp.iter().all(|f| *f == fp[0]),
            "seed {seed} (k={k}): fingerprints diverged"
        );
        assert!(
            nets[0].stats().delivered.get() > 0,
            "seed {seed}: nothing was delivered"
        );
        let traces = nets.map(|n| n.into_sink().to_vec());
        assert!(!traces[0].is_empty(), "seed {seed}: no telemetry recorded");
        for (i, t) in traces.iter().enumerate().skip(1) {
            assert!(
                t == &traces[0],
                "seed {seed} (k={k}): telemetry stream diverged for net {i}"
            );
        }
    }
    assert!(
        deep_epochs >= 4,
        "only {deep_epochs}/8 seeds exercised K > 1 — bridge latencies too shallow"
    );
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
fn ring64(mode: TickMode) -> (Network, Vec<NodeId>) {
    let mut b = TopologyBuilder::new();
    let die = b.add_chiplet("die");
    let r = b.add_ring(die, RingKind::Full, 64).expect("ring");
    let eps = (0..64)
        .map(|i| b.add_node(format!("n{i}"), r, i).expect("node"))
        .collect();
    let net = Network::with_mode(b.build().expect("valid"), NetworkConfig::default(), mode);
    (net, eps)
}

#[test]
fn reference_tick_never_skips_a_station() {
    // Closed loop of 12 flits (~9% of the 128 slots), where the fast
    // path skips most visits. The golden-model sweep visits every
    // station and keeps no skip accounting, so it reports no skipping.
    let (mut net, eps) = ring64(TickMode::Reference);
    for i in 0..12u64 {
        let s = eps[(i * 11 % 64) as usize];
        let d = eps[((i * 11 + 32) % 64) as usize];
        net.enqueue(s, d, FlitClass::Data, 64, i)
            .expect("seed flit");
    }
    for _ in 0..1_000 {
        net.tick();
        for ei in 0..eps.len() {
            while let Some(f) = net.pop_delivered(eps[ei]) {
                let back = eps[(ei + 17) % 64];
                let _ = net.enqueue(eps[ei], back, FlitClass::Data, 64, f.token);
            }
        }
    }
    assert_eq!(net.tick_profile().skip_fraction(), 0.0);
}

#[test]
fn saturated_clockwise_load_skips_exactly_the_idle_lane() {
    // Every station enqueues every cycle to a destination 21–33 stations
    // clockwise, so every head wants lane 0 and lane 1 stays idle: the
    // fast path visits exactly half the station slots.
    let (mut net, eps) = ring64(TickMode::Fast);
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
