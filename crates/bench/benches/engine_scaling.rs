//! Engine scaling at K = 1: ticks/sec of `Network::tick()` — the
//! one-cycle epoch — on the AI topology, with the cycle loop on the
//! calling thread (`ExecMode::Sequential`) or on `n` threads each owning
//! a partition of the rings (`ExecMode::Parallel(n)`).
//!
//! Results are bit-identical across modes by construction (see
//! `tick_equivalence.rs`); this bench measures only the wall-clock
//! trade. The `k1/parallel/n` rows for n ≥ 2 pay one pool handoff and,
//! per cross-partition bridge, four SPSC messages *per cycle*; longer
//! epochs amortize the handoff (`noc-bench scaling` sweeps K).
//! `k1/parallel/1` is the sequential path: no pool. Interpret the
//! numbers against the host's actual core count — on a single-CPU host
//! the parallel rows measure pure handoff overhead, not speedup.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use noc_ai::{build_topology, AiConfig};
use noc_core::telemetry::NullSink;
use noc_core::{ExecMode, FlitClass, Network, NetworkConfig, NodeId, TickMode};

const CYCLES: u64 = 500;

/// A mid-size AI mesh: 4 vertical + 2 horizontal rings is enough shards
/// for an 8-way fan-out to have real work per worker.
fn ai_cfg() -> AiConfig {
    AiConfig {
        v_rings: 4,
        cores_per_vring: 8,
        h_rings: 2,
        l2_per_hring: 8,
        hbm_count: 2,
        dma_count: 2,
        llc_count: 2,
        ..Default::default()
    }
}

fn build(exec: ExecMode) -> (Network, Vec<NodeId>, Vec<NodeId>) {
    let cfg = ai_cfg();
    let (topo, map) = build_topology(&cfg).expect("builds");
    let net = Network::with_exec(
        topo,
        NetworkConfig::default(),
        TickMode::Fast,
        exec,
        NullSink,
    );
    (net, map.cores, map.l2s)
}

/// Saturating closed loop: every core offers a flit to an interleaved
/// L2 slice each cycle, deliveries drain immediately.
fn run(net: &mut Network, cores: &[NodeId], l2s: &[NodeId], cycles: u64) {
    for c in 0..cycles {
        for (i, &core) in cores.iter().enumerate() {
            let l2 = l2s[(i * 7 + c as usize) % l2s.len()];
            let _ = net.enqueue(core, l2, FlitClass::Data, 64, c);
        }
        net.tick();
        for &l2 in l2s {
            while net.pop_delivered(l2).is_some() {}
        }
    }
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_scaling");
    g.throughput(Throughput::Elements(CYCLES));
    g.sample_size(10);
    g.bench_function("k1/sequential", |b| {
        b.iter_with_setup(
            || build(ExecMode::Sequential),
            |(mut net, cores, l2s)| {
                run(&mut net, &cores, &l2s, CYCLES);
                net
            },
        )
    });
    for threads in [1usize, 2, 4] {
        g.bench_function(&format!("k1/parallel/{threads}"), |b| {
            b.iter_with_setup(
                || build(ExecMode::Parallel(threads)),
                |(mut net, cores, l2s)| {
                    run(&mut net, &cores, &l2s, CYCLES);
                    net
                },
            )
        });
    }
    g.finish();
}
criterion_group!(benches, bench);
criterion_main!(benches);
