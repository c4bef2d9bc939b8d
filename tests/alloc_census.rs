//! Allocation census: heap allocations counted, not timed.
//!
//! A counting global allocator (std only) tallies every `alloc`,
//! `alloc_zeroed` and `realloc` made on the calling thread, and the
//! bytes they leave live — thread-local tallies, because the test
//! harness runs tests side by side. Each case warms its system up, then
//! counts a fixed stretch at a fixed seed and size and pins the figure:
//!
//! * building a `Network` on the benchmark's 8×8 torus leaves a pinned
//!   number of heap bytes live, after a pinned number of allocations;
//! * the raw `Network` (no telemetry) and the `AiEngine` allocate
//!   nothing per cycle in steady state: a handful of times in 20 000
//!   cycles, each a bounded queue (a bridge pipeline, an L2 arrival
//!   queue) growing to a new high-water mark;
//! * `CoherentSystem` and `TxnFabric` allocate an exact number of times
//!   over a fixed number of completed requests or transactions;
//! * the flight recorder allocates the same number of times in every
//!   metrics window, however long it runs.
//!
//! A pinned count moves when a change adds or removes an allocation on
//! one of these paths. If the change meant to, update the pin and say
//! why; if not, the census found a regression the clocks cannot see.
//!
//! Debug builds run the engine's `debug_check_*` walks, which allocate
//! every cycle, so the census compiles only without debug assertions:
//! `cargo test --release -p noc-tests --test alloc_census`.
#![cfg(not(debug_assertions))]

use noc_ai::{AiConfig, AiEngine, AiProcessor, AiTraffic};
use noc_chi::drive::ClosedLoop;
use noc_chi::{LineAddr, ReadKind, TxnKind};
use noc_core::drive::OpenLoop;
use noc_core::spec::devices_by_name;
use noc_core::telemetry::{HealthConfig, RecorderConfig};
use noc_core::{GridParams, Network, NetworkConfig, NodeId, Topology};
use noc_server_cpu::{ServerCpu, ServerCpuConfig};
use noc_sim::fuzz::TrafficPattern;
use noc_sim::SimRng;
use noc_txn::{TxnConfig, TxnFabric};
use noc_workloads::{TxnMix, TxnRequest, TxnWorkload, Zipf};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread. A block freed
    /// by another thread than the one that allocated it skews both
    /// threads' tallies, so only differences over single-threaded code
    /// mean anything.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// `System`, counting allocations and live bytes per thread.
struct Counting;

/// Tally one allocation call that changed this thread's live bytes by
/// `grown` minus `freed`.
fn count(grown: usize, freed: usize) {
    // `try_with`: the slots may be gone while a thread is torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    live(grown, freed);
}

fn live(grown: usize, freed: usize) {
    let _ = LIVE.try_with(|c| c.set(c.get() + grown as i64 - freed as i64));
}

// SAFETY: every call is forwarded unchanged to `System`; the tallies
// are const-initialised thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, layout.size());
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(0, layout.size());
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations this thread has made so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocations made by `f` on this thread.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = allocs();
    f();
    allocs() - before
}

/// `f`'s result, with the allocations it made on this thread and the
/// heap bytes those leave live while the result is held.
fn held_by<T>(f: impl FnOnce() -> T) -> (T, u64, i64) {
    let (allocs0, live0) = (allocs(), LIVE.with(Cell::get));
    let t = f();
    (t, allocs() - allocs0, LIVE.with(Cell::get) - live0)
}

/// A generated torus with its devices in name order.
fn torus(side: u16, devices: u16, seed: u64) -> (Topology, Vec<NodeId>) {
    let (topo, names) = GridParams::torus(side, side)
        .with_stations(16)
        .with_devices(devices)
        .with_seed(seed)
        .generate()
        .expect("the torus generates")
        .compile()
        .expect("the torus compiles");
    (topo, devices_by_name(&names))
}

/// One open-loop cycle of raw flits: `offers` makes the cycle's offers
/// (a refused flit is dropped), the network ticks, every device drains
/// its mail.
fn flit_cycle<S: noc_core::telemetry::TraceSink>(
    net: &mut Network<S>,
    offers: &mut OpenLoop,
    rng: &mut SimRng,
) {
    offers.offer(net, rng);
    net.tick();
    offers.pop_all(net);
}

/// The benchmark's 8×8 torus (64 rings, 256 devices), freshly built:
/// 461 560 heap bytes left live by 35 229 allocations. The delivery
/// histograms are one set per network, not one per ring, and a node
/// carries no bandwidth probe; with a full statistics block per ring
/// and the probe inline in every node, the same network held 927 296
/// bytes after 37 321 allocations. While `BridgeConfig` carried the
/// always-zero `drm_exit_occupancy` it held 471 800: 8 bytes more in
/// each of the 256 bridge escapes (two per bridge). While each node
/// kept a boxed probe slot (a null pointer unless probing was on) it
/// held 469 752: 8 bytes more in each of the 512 node interfaces. While
/// each escape counted the flits pushed into and popped out of it (the
/// sampled wait graph's progress counters) it held 465 656: 16 bytes
/// more in each of the 256 escapes.
#[test]
fn a_fresh_network_holds_a_pinned_heap() {
    let (topo, _) = torus(8, 4, 0x746f_7238);
    let (net, allocs, bytes) = held_by(|| Network::new(topo, NetworkConfig::default()));
    assert_eq!(net.topology().rings().len(), 64);
    assert_eq!(
        (bytes, allocs),
        (461_560, 35_229),
        "live bytes and allocations of Network::new"
    );
}

/// The 8×8 torus at the injection knee (0.08 flits per device per
/// cycle), no telemetry: after 20 000 cycles of warm-up, 5 allocations
/// in the next 20 000, each a bridge pipeline reaching a new depth.
#[test]
fn a_raw_network_allocates_only_to_grow_its_queues() {
    let (topo, devices) = torus(8, 4, 0x746f_7238);
    let mut net = Network::new(topo, NetworkConfig::default());
    let mut offers = OpenLoop::new(devices, TrafficPattern::Uniform, 0.08);
    let mut rng = SimRng::seed_from(7);
    for _ in 0..20_000 {
        flit_cycle(&mut net, &mut offers, &mut rng);
    }
    let n = allocs_in(|| {
        for _ in 0..20_000 {
            flit_cycle(&mut net, &mut offers, &mut rng);
        }
    });
    assert!(net.stats().delivered.get() > 500_000, "the load ran");
    assert_eq!(n, 5, "allocations over 20 000 cycles of raw flits");
}

/// The AI-Processor streaming at saturation (its own closed-loop
/// traffic): after 20 000 cycles of warm-up, 29 allocations in the next
/// 20 000, each a bridge pipeline or an L2 arrival queue reaching a new
/// depth.
#[test]
fn the_ai_engine_allocates_only_to_grow_its_queues() {
    let proc = AiProcessor::build(AiConfig::default()).expect("the default AI-Processor is valid");
    let traffic = AiTraffic {
        seed: 7,
        ..AiTraffic::default()
    };
    let mut engine = AiEngine::new(proc, traffic);
    engine.run(20_000, 0).expect("warm-up runs clean");
    let mut moved = 0;
    let n = allocs_in(|| {
        let r = engine.run(0, 20_000).expect("runs clean");
        moved = r.read_bytes + r.write_bytes + r.dma_bytes;
    });
    assert!(moved > 0, "the engine moved data");
    assert_eq!(n, 29, "allocations over 20 000 AI-Processor cycles");
}

/// The Server-CPU under a closed loop of Zipf-distributed reads and
/// writes, four outstanding per cluster: 10 365 allocations over 8 000
/// completed requests (1.30 each). Most are the requesters' protocol
/// handling; about a third are LLC sets growing by one way as new
/// lines are installed.
#[test]
fn a_coherent_system_allocates_a_pinned_count_per_request() {
    const WARM: u64 = 4_000;
    const MEASURED: u64 = 8_000;
    let cpu =
        ServerCpu::build(ServerCpuConfig::default()).expect("the default Server-CPU is valid");
    let clusters = cpu.map.clusters.clone();
    let mut sys = cpu.sys;
    let zipf = Zipf::new(65_536, 0.9);
    let mut rng = SimRng::seed_from(7);
    let requests: Vec<(LineAddr, TxnKind)> = (0..WARM + MEASURED + 4 * clusters.len() as u64)
        .map(|_| {
            let line = LineAddr(zipf.sample(&mut rng) as u64);
            let read = rng.gen_bool(0.7);
            (
                line,
                if read {
                    TxnKind::Read(ReadKind::Shared)
                } else {
                    TxnKind::Write
                },
            )
        })
        .collect();
    let mut requests = requests.into_iter();
    let mut closed = ClosedLoop::new(4, &clusters);
    closed.run_to(&mut sys, &mut requests, WARM);
    let mut done = 0;
    let n = allocs_in(|| done = closed.run_to(&mut sys, &mut requests, WARM + MEASURED));
    assert_eq!(done - WARM, MEASURED, "no request was lost");
    assert_eq!(n, 10_365, "allocations over {MEASURED} completed requests");
}

/// The benchmark's transaction mix (reads beside writes and atomics,
/// bursts up to 1 KiB, 64 in flight) on the 4×4 torus, no telemetry:
/// 4 987 allocations over 6 000 completed transactions (0.83 each),
/// nearly all of them the `Vec` of completion records
/// `drain_completions` hands back on a cycle that completes anything.
/// Packets are split and their flits staged without allocating.
#[test]
fn a_txn_fabric_allocates_a_pinned_count_per_transaction() {
    const WARM: u64 = 2_000;
    const MEASURED: u64 = 6_000;
    let (topo, devices) = torus(4, 2, 0x7261_6a65);
    let mut fab = TxnFabric::new(
        Network::new(topo, NetworkConfig::default()),
        TxnConfig {
            reassembly_slots: 1,
            max_data_flits: 16,
            ..TxnConfig::default()
        },
    );
    let mix = TxnMix {
        read_frac: 0.45,
        write_frac: 0.43,
        atomic_frac: 0.12,
        bcast_frac: 0.0,
        posted_frac: 0.5,
    };
    let workload = TxnWorkload::new(devices, mix, TrafficPattern::Uniform, 64, 16);
    let mut rng = SimRng::seed_from(7);
    let requests: Vec<TxnRequest> = (0..WARM + MEASURED + 64)
        .map(|_| workload.next(&mut rng))
        .collect();
    let mut requests = requests.into_iter();
    let mut closed = noc_txn::drive::ClosedLoop::new(64, usize::MAX);
    let mut run_to = |target: u64| {
        while fab.counters().completed() < target {
            closed
                .cycle(&mut fab, &mut requests, |_| {})
                .expect("valid endpoints");
        }
        fab.counters().completed()
    };
    run_to(WARM);
    let mut done = 0;
    let n = allocs_in(|| done = run_to(WARM + MEASURED));
    assert!(done - WARM >= MEASURED);
    assert_eq!(
        n,
        4_987,
        "allocations over {} completed transactions",
        done - WARM
    );
}

/// Broadcasts only, on the same 4×4 torus: each reaches about half of
/// the 32 devices through its relay tree, 4 in flight, one to four data
/// flits each: 44 195 allocations over 1 500 completed broadcasts
/// (29.5 each), nearly all of them building each broadcast's relay
/// tree. Relays stage their children straight from the tree; copying
/// each relay's child list per reassembled copy, as the fabric once
/// did, cost 53 512 here.
#[test]
fn a_broadcast_mix_allocates_a_pinned_count_per_broadcast() {
    const WARM: u64 = 500;
    const MEASURED: u64 = 1_500;
    let (topo, devices) = torus(4, 2, 0x7261_6a65);
    let mut fab = TxnFabric::new(
        Network::new(topo, NetworkConfig::default()),
        TxnConfig {
            max_data_flits: 4,
            ..TxnConfig::default()
        },
    );
    let mix = TxnMix {
        read_frac: 0.0,
        write_frac: 0.0,
        atomic_frac: 0.0,
        bcast_frac: 1.0,
        posted_frac: 0.0,
    };
    let workload = TxnWorkload::new(devices, mix, TrafficPattern::Uniform, 64, 4);
    let mut rng = SimRng::seed_from(7);
    let requests: Vec<TxnRequest> = (0..WARM + MEASURED + 4)
        .map(|_| workload.next(&mut rng))
        .collect();
    let mut requests = requests.into_iter();
    let mut closed = noc_txn::drive::ClosedLoop::new(4, usize::MAX);
    let mut run_to = |target: u64| {
        while fab.counters().completed() < target {
            closed
                .cycle(&mut fab, &mut requests, |_| {})
                .expect("valid broadcast");
            assert!(fab.network().now().raw() < 2_000_000, "the mix drains");
        }
        fab.counters().completed()
    };
    run_to(WARM);
    let mut done = 0;
    let n = allocs_in(|| done = run_to(WARM + MEASURED));
    assert!(done - WARM >= MEASURED);
    assert_eq!(
        n,
        44_195,
        "allocations over {} completed broadcasts",
        done - WARM
    );
}

/// Raw flits on the 4×4 torus with the flight recorder on (metrics
/// every 32 cycles, health watchdogs, flow tables), beside a twin
/// without it fed the same traffic: the twin's allocations are the
/// network's own (a queue reaching a new depth), so the difference is
/// the recorder's. It is the same in every metrics window, however
/// long the run: 49 = the snapshot's ring vector plus, for each of the
/// 16 rings, its bridge gauges, flow rows and link row. On top of that,
/// 9 windows in 448 allocate once more: a ring's staged flow deltas
/// (one per delivery in the window) reaching a new high-water mark.
#[test]
fn the_flight_recorder_allocates_the_same_in_every_window() {
    const PERIOD: u64 = 32;
    let (topo, devices) = torus(4, 2, 0x7261_6a65);
    let mut plain = Network::new(topo.clone(), NetworkConfig::default());
    let mut net = Network::new(topo, NetworkConfig::default());
    net.enable_flight_recorder(PERIOD, HealthConfig::default(), RecorderConfig::default());
    let (mut plain_rng, mut rng) = (SimRng::seed_from(7), SimRng::seed_from(7));
    let mut plain_offers = OpenLoop::new(devices, TrafficPattern::Uniform, 0.05);
    let mut offers = plain_offers.clone();
    let mut windows = Vec::new();
    for _ in 0..512 {
        let own = allocs_in(|| {
            for _ in 0..PERIOD {
                flit_cycle(&mut plain, &mut plain_offers, &mut plain_rng);
            }
        });
        let all = allocs_in(|| {
            for _ in 0..PERIOD {
                flit_cycle(&mut net, &mut offers, &mut rng);
            }
        });
        windows.push(all - own);
    }
    assert_eq!(
        plain.fingerprint(),
        net.fingerprint(),
        "observing perturbed the run"
    );
    // The first windows fill the registry and grow the recorder's
    // tables; from the registry's bound on, every window is alike.
    let steady = &windows[64..];
    let extra: Vec<u64> = steady.iter().map(|&w| w - 49).collect();
    assert!(extra.iter().all(|&x| x <= 1), "{steady:?}");
    assert_eq!(extra.iter().sum::<u64>(), 9, "{steady:?}");
}
