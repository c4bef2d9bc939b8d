//! Core micro-benchmarks: raw simulation throughput of the network
//! engine (cycles/sec) and of one loaded ring — the numbers that bound
//! how large an experiment the harness can run.
//!
//! The `tick64/*` benchmarks compare the event-indexed fast path
//! (`TickMode::Fast`) against the golden-model full sweep
//! (`TickMode::Reference`, the engine's original inner loop) on a
//! 64-station full ring, at low occupancy (a handful of flits in
//! flight, where skipping idle stations should win big) and at
//! saturation (every station pushing flits, where every station is an
//! event every cycle and the fast path must merely not regress).
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use noc_core::{FlitClass, Network, NetworkConfig, NodeId, RingKind, TickMode, TopologyBuilder};

fn loaded_ring() -> (Network, Vec<NodeId>) {
    let mut b = TopologyBuilder::new();
    let die = b.add_chiplet("die");
    let r = b.add_ring(die, RingKind::Full, 16).expect("ring");
    let eps: Vec<_> = (0..16)
        .map(|i| b.add_node(format!("n{i}"), r, i).expect("node"))
        .collect();
    (
        Network::new(b.build().expect("valid"), NetworkConfig::default()),
        eps,
    )
}

/// 64-station full ring with a device on every station.
fn ring64(mode: TickMode) -> (Network, Vec<NodeId>) {
    let mut b = TopologyBuilder::new();
    let die = b.add_chiplet("die");
    let r = b.add_ring(die, RingKind::Full, 64).expect("ring");
    let eps: Vec<_> = (0..64)
        .map(|i| b.add_node(format!("n{i}"), r, i).expect("node"))
        .collect();
    let net = Network::with_mode(b.build().expect("valid"), NetworkConfig::default(), mode);
    (net, eps)
}

/// Closed loop of `inflight` flits: each delivery immediately re-sends,
/// holding ring occupancy near `inflight / 128` slots.
fn run_low_occupancy(mode: TickMode, cycles: u64, inflight: u64) -> Network {
    let (mut net, eps) = ring64(mode);
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
/// and every station's head wants a slot.
fn run_saturated(mode: TickMode, cycles: u64) -> Network {
    let (mut net, eps) = ring64(mode);
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

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("noc_core");
    g.throughput(Throughput::Elements(1_000));
    g.bench_function("tick_1k_cycles_loaded_ring", |b| {
        b.iter_with_setup(
            || {
                let (mut net, eps) = loaded_ring();
                for i in 0..64u64 {
                    let s = eps[(i % 16) as usize];
                    let d = eps[((i + 7) % 16) as usize];
                    let _ = net.enqueue(s, d, FlitClass::Data, 64, i);
                }
                (net, eps)
            },
            |(mut net, eps)| {
                for i in 0..1_000u64 {
                    let s = eps[(i % 16) as usize];
                    let d = eps[((i * 5 + 3) % 16) as usize];
                    if s != d {
                        let _ = net.enqueue(s, d, FlitClass::Data, 64, i);
                    }
                    net.tick();
                    for &e in &eps {
                        while net.pop_delivered(e).is_some() {}
                    }
                }
                net
            },
        )
    });
    g.finish();

    let mut g = c.benchmark_group("tick64");
    g.throughput(Throughput::Elements(1_000));
    g.sample_size(20);
    g.bench_function("low_occupancy_fast", |b| {
        b.iter(|| run_low_occupancy(TickMode::Fast, 1_000, 6))
    });
    g.bench_function("low_occupancy_reference", |b| {
        b.iter(|| run_low_occupancy(TickMode::Reference, 1_000, 6))
    });
    g.bench_function("saturated_fast", |b| {
        b.iter(|| run_saturated(TickMode::Fast, 1_000))
    });
    g.bench_function("saturated_reference", |b| {
        b.iter(|| run_saturated(TickMode::Reference, 1_000))
    });
    g.finish();
}
criterion_group!(benches, bench);
criterion_main!(benches);
