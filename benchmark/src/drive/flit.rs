//! `torus8_flit_knee`: raw flits on the 8×8 generated torus, open
//! loop at the injection knee — plus the `sim` engine-variant side runs
//! on the same fabric.

use super::{
    accounting_check, blank_report, conservation_check, core_counters, stream_seed, Slicer,
    DRAIN_CYCLES,
};
use crate::estimate::LatencyHist;
use crate::report::{hash_words, ChildReport, SideReport, Size};
use crate::trace::{self, Tracer};
use noc_core::telemetry::NullSink;
use noc_core::{
    EnqueueError, ExecMode, Flit, FlitClass, GridParams, Network, NetworkConfig, NodeId, TickMode,
};
use noc_sim::SimRng;

/// Flits per device per cycle (Bernoulli): the lower edge of the knee
/// of the 8×8 torus. The fabric collapses at 0.10 on every traffic seed
/// and at 0.09 on 1 seed in 43 (seed 46: 220 000 of 920 000 flits
/// refused or undelivered); 0.08 delivered everything on 73.
pub const KNEE_RATE: f64 = 0.08;
/// Rate of the `sim` side runs: below the knee, where the engine
/// variants differ most.
pub const SIDE_RATE: f64 = 0.04;
/// Fabric seed (device placement); fixed.
const FABRIC_SEED: u64 = 0x746f_7238;

fn params() -> GridParams {
    GridParams::torus(8, 8)
        .with_stations(16)
        .with_devices(4)
        .with_seed(FABRIC_SEED)
}

/// Devices in name order (`HashMap` order is not reproducible).
fn sorted_devices(names: std::collections::HashMap<String, NodeId>) -> Vec<NodeId> {
    let mut named: Vec<_> = names.into_iter().collect();
    named.sort();
    named.into_iter().map(|(_, id)| id).collect()
}

/// The open-loop schedule: for every cycle, the (source, destination)
/// device indices due that cycle.
struct Schedule {
    /// End offset into `pairs` of each cycle's batch.
    ends: Vec<u32>,
    pairs: Vec<(u16, u16)>,
}

impl Schedule {
    /// `cycles` cycles of Bernoulli(`rate`) per device, uniform
    /// destinations; flits are due only on cycles that are multiples of
    /// `align` (1 = every cycle), `align` draws per device then.
    fn generate(seed: u64, cycles: u64, devices: usize, rate: f64, align: u64) -> Self {
        let mut rng = SimRng::seed_from(seed);
        let mut s = Schedule {
            ends: Vec::with_capacity(cycles as usize),
            pairs: Vec::with_capacity((cycles as f64 * devices as f64 * rate * 1.05) as usize),
        };
        for cycle in 0..cycles {
            if cycle.is_multiple_of(align) {
                for _ in 0..align {
                    for src in 0..devices {
                        if rng.gen_bool(rate) {
                            let pick = rng.gen_index(devices - 1);
                            let dst = if pick >= src { pick + 1 } else { pick };
                            s.pairs.push((src as u16, dst as u16));
                        }
                    }
                }
            }
            s.ends.push(s.pairs.len() as u32);
        }
        s
    }

    fn batch(&self, cycle: usize) -> &[(u16, u16)] {
        let start = if cycle == 0 { 0 } else { self.ends[cycle - 1] };
        &self.pairs[start as usize..self.ends[cycle] as usize]
    }
}

/// Run the workload. `size` counts cycles.
pub fn run<T: Tracer>(seed: u64, size: Size, tr: &mut T) -> ChildReport {
    let mut rep = blank_report("torus8_flit_knee", seed, size);
    tr.open(trace::SETUP);
    tr.open(trace::TOPOGEN);
    let spec = params().generate().expect("the 8x8 torus generates");
    tr.close();
    tr.open(trace::COMPILE);
    let (topo, names) = spec.compile().expect("the 8x8 torus compiles");
    tr.close();
    tr.open(trace::NET_BUILD);
    let net = Network::with_exec(
        topo,
        NetworkConfig::default(),
        TickMode::Fast,
        ExecMode::Sequential,
        NullSink,
    );
    tr.close();
    let devices = sorted_devices(names);
    tr.open(trace::GENERATE);
    let total_cycles = size.warmup + size.measured;
    let schedule = Schedule::generate(
        stream_seed(seed, 0x6b6e_6565),
        total_cycles,
        devices.len(),
        KNEE_RATE,
        1,
    );
    tr.close();

    let mut lp = Loop {
        net,
        devices,
        attempts: 0,
        refused: 0,
        delivered: 0,
        latency: LatencyHist::default(),
        popped: Vec::new(),
    };
    tr.open(trace::WARMUP);
    for c in 0..size.warmup {
        lp.cycle(
            &mut trace::NoTrace::default(),
            schedule.batch(c as usize),
            false,
        );
    }
    tr.close();
    let stats0 = lp.net.stats();
    let profile0 = lp.net.tick_profile();
    let in_flight0 = lp.net.in_flight();
    let (attempts0, refused0, delivered0) = (lp.attempts, lp.refused, lp.delivered);
    tr.close(); // setup

    let mut slicer = Slicer::start(lp.net.now().raw(), size.slices());
    for c in size.warmup..total_cycles {
        lp.cycle(tr, schedule.batch(c as usize), true);
        if (c + 1 - size.warmup).is_multiple_of(size.slice) {
            slicer.cut(lp.net.now().raw());
        }
    }
    let stats1 = lp.net.stats();
    let profile1 = lp.net.tick_profile();
    rep.ops = lp.delivered - delivered0;
    rep.stalled = rep.ops == 0;

    // Untimed: give what is still in the network a bounded time to
    // arrive; what does not is failed.
    let mut drained = 0;
    while lp.net.in_flight() > 0 && drained < DRAIN_CYCLES {
        lp.cycle(&mut trace::NoTrace::default(), &[], true);
        drained += 1;
    }
    let net = &lp.net;
    let resident = net.count_resident_flits();

    rep.setup_s = tr.last_secs(trace::SETUP);
    for (k, name) in [
        ("core.topogen_generate_s", trace::TOPOGEN),
        ("core.spec_compile_s", trace::COMPILE),
        ("core.network_build_s", trace::NET_BUILD),
        ("workloads.generate_s", trace::GENERATE),
        ("bench.warmup_s", trace::WARMUP),
    ] {
        rep.setup_phases.insert(k.to_string(), tr.last_secs(name));
    }
    rep.cycles = slicer.total_cycles();
    rep.slice_ns = slicer.ns;
    rep.slice_cycles = slicer.cycles;
    // The section must finish what warm-up left in flight and what it
    // enqueued itself.
    rep.attempted = in_flight0 + lp.attempts - attempts0;
    rep.failed = (lp.refused - refused0) + resident;
    rep.latency = lp.latency.summary();
    rep.net_fingerprint = hash_words(&net.fingerprint());
    rep.sim_fingerprint = rep.net_fingerprint.clone();
    core_counters(&mut rep.counters, &stats0, &stats1, (profile0, profile1));
    rep.counters.insert(
        "bench.generated_requests".to_string(),
        schedule.pairs.len() as f64,
    );
    rep.checks.push(conservation_check(&net.stats(), resident));
    rep.checks.push(accounting_check(
        rep.attempted,
        lp.delivered - delivered0,
        rep.failed,
    ));
    rep
}

/// The open loop over the network's three public calls.
struct Loop {
    net: Network,
    devices: Vec<NodeId>,
    attempts: u64,
    refused: u64,
    delivered: u64,
    latency: LatencyHist,
    /// This cycle's deliveries (kept to reuse the allocation).
    popped: Vec<Flit>,
}

impl Loop {
    /// One simulated cycle: enqueue what is due (a refused flit is
    /// dropped, never retried: the loop is open), tick, empty every
    /// eject queue. The ~25 enqueues and ~280 pops of a cycle are one
    /// batched span each.
    fn cycle<T: Tracer>(&mut self, tr: &mut T, batch: &[(u16, u16)], record: bool) {
        tr.iter_open();
        let (net, devices, popped) = (&mut self.net, &self.devices, &mut self.popped);
        let mut refused = 0;
        tr.batch(trace::CORE_ENQUEUE, || {
            for &(src, dst) in batch {
                let (src, dst) = (devices[src as usize], devices[dst as usize]);
                match net.enqueue(src, dst, FlitClass::Data, 64, 0) {
                    Ok(_) => {}
                    Err(EnqueueError::InjectQueueFull { .. }) => refused += 1,
                    Err(e) => panic!("generated request rejected: {e}"),
                }
            }
            batch.len() as u64
        });
        self.attempts += batch.len() as u64;
        self.refused += refused;
        tr.call(trace::CORE_TICK, || net.tick());
        popped.clear();
        tr.batch(trace::CORE_POP, || {
            let mut calls = 0;
            for &dev in devices {
                loop {
                    calls += 1;
                    match net.pop_delivered(dev) {
                        Some(flit) => popped.push(flit),
                        None => break,
                    }
                }
            }
            calls
        });
        self.delivered += popped.len() as u64;
        if record {
            // Open loop: latency runs from the cycle the flit was due,
            // which is the cycle it was enqueued.
            let now = net.now();
            for flit in popped.iter() {
                self.latency.record(flit.total_latency(now));
            }
        }
        tr.iter_close();
    }
}

/// One `sim` side run: `cycles` cycles at [`SIDE_RATE`] under `exec`,
/// advancing `k` cycles per engine call (0 = the fabric's
/// `max_epoch()`), cut into `slices` slices. Traffic and drains happen
/// only at multiples of `max_epoch()`, so every variant simulates the
/// identical network and the fingerprints must agree.
pub fn side_run(variant: &str, seed: u64, cycles: u64, slices: u64) -> SideReport {
    let (exec, k_is_max) = match variant {
        "seq_k1" => (ExecMode::Sequential, false),
        "par2_k1" => (ExecMode::Parallel(2), false),
        "par2_kmax" => (ExecMode::Parallel(2), true),
        "seq_kmax" => (ExecMode::Sequential, true),
        other => panic!("unknown sim variant {other}"),
    };
    let (topo, names) = params()
        .generate()
        .expect("the 8x8 torus generates")
        .compile()
        .expect("the 8x8 torus compiles");
    let mut net = Network::with_exec(
        topo,
        NetworkConfig::default(),
        TickMode::Fast,
        exec,
        NullSink,
    );
    let devices = sorted_devices(names);
    let align = net.max_epoch();
    let k = if k_is_max { align } else { 1 };
    let cycles = cycles / (align * slices) * (align * slices);
    let schedule = Schedule::generate(
        stream_seed(seed, 0x7369_6d32),
        cycles,
        devices.len(),
        SIDE_RATE,
        align,
    );
    let per_slice = cycles / slices;
    let mut slicer = Slicer::start(0, slices);
    for c in 0..cycles {
        if c.is_multiple_of(align) {
            for &dev in &devices {
                while net.pop_delivered(dev).is_some() {}
            }
            for &(src, dst) in schedule.batch(c as usize) {
                // Refusals are deterministic too; the fingerprint
                // covers them.
                let _ = net.enqueue(
                    devices[src as usize],
                    devices[dst as usize],
                    FlitClass::Data,
                    64,
                    0,
                );
            }
        }
        if c.is_multiple_of(k) {
            net.tick_epoch(k).expect("k is within max_epoch");
        }
        if (c + 1).is_multiple_of(per_slice) {
            slicer.cut(c + 1);
        }
    }
    SideReport {
        variant: variant.to_string(),
        cycles,
        slice_ns: slicer.ns,
        fingerprint: hash_words(&net.fingerprint()),
    }
}
